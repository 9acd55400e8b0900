// Package live replays chaos schedules against real TCP sockets. The
// simulated harness (internal/chaos) proves the protocols correct on a
// virtual clock; this package proves the production transport — bounded
// send queues, dial backoff, framing, fault injection — keeps those
// same invariants when the bytes are real. A Cluster is a chaos.Builder
// over transport.Node + transport.TCP, as sim.Cluster is, so every
// scenario's schedule and body (fs, paxos, mr, gossip) runs on it
// unchanged, through this package's one runner (Registry); boom
// mr-demo deploys BOOM-MR on it too.
//
// Schedules name nodes logically (fsm:0, dn:1); live nodes listen on
// localhost ports, and the cluster keeps the alias map: every method
// that takes a node knows it by either. The cluster owns
// one virtual clock (transport.NewVirtualClock) that every node,
// transport and joined client reads and waits on. It jumps to the next
// deadline whenever the whole cluster waits, so the sim scenarios' own
// schedules, protocol configs and monitor windows run uncompressed, in
// the time their work takes. What it gives up is wall-clock jitter:
// nothing is ever late because a kernel was slow.
//
// Unlike the simulator, live runs are NOT bit-replayable — the order
// of work within one virtual instant varies. The package is
// deliberately outside boomvet's deterministic scope (see
// internal/govet/config.go); what stays deterministic is the schedule
// itself, which is data shared verbatim with the replayable sim harness.
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// redialBase and redialCap bound the dial backoff below production's,
// so a peer back from a crash-restart is redialed within a heartbeat,
// close to the simulator, which has no dial backoff.
const redialBase, redialCap = 10 * time.Millisecond, 200 * time.Millisecond

// node is one live process-equivalent: a runtime stepped by a
// transport.Node, listening on its own TCP port. nd is nil while the
// node is down: not yet booted, or killed. Either way nothing listens
// at addr, so a frame sent there is dropped and counted, and the clock
// moves on.
type node struct {
	name    string // logical schedule name (fsm:0, dn:1)
	addr    string // 127.0.0.1:port — the runtime's LocalAddr
	release func() // frees addr, reserved by reserveAddr, at the first boot
	rt      *overlog.Runtime
	nd      *transport.Node
	tcp     *transport.TCP
	svcs    []sim.Service
	spec    sim.NodeSpec
}

// Cluster is the live driver: real listeners, real dials, shared fault
// plane, one virtual clock. Build nodes with AddNode and install
// programs on the returned runtimes; the first Run boots them all.
type Cluster struct {
	clock  *transport.Clock
	faults *transport.Faults
	tracer *telemetry.Tracer
	stats  *transport.TCPStats

	mu      sync.Mutex
	nodes   map[string]*node
	order   []string
	errs    []error
	pending []func() // injections made before the first Run
	started bool
	closed  bool
}

// NewCluster builds an empty live cluster. The seed feeds the fault
// plane's loss sampling (the only randomness the harness itself owns).
// Every node records into the cluster's one event ring (Tracer). The
// calling goroutine holds the cluster's clock: time stands still until
// it waits in Run or in a joined client's op.
func NewCluster(seed int64, reg *telemetry.Registry) *Cluster {
	return &Cluster{
		clock:  transport.NewVirtualClock(),
		faults: transport.NewFaults(seed),
		tracer: telemetry.NewTracer(0),
		stats:  transport.NewTCPStats(reg),
		nodes:  make(map[string]*node),
	}
}

// Faults exposes the shared fault plane, so out-of-cluster participants
// (the failover client) can join it.
func (c *Cluster) Faults() *transport.Faults { return c.faults }

// Clock exposes the cluster's clock, which such a participant joins too.
func (c *Cluster) Clock() *transport.Clock { return c.clock }

// Now returns the cluster clock in schedule milliseconds.
func (c *Cluster) Now() int64 { return c.clock.Now().UnixMilli() }

// Tracer returns the cluster's event ring.
func (c *Cluster) Tracer() *telemetry.Tracer { return c.tracer }

// fault records an injected fault in the event ring.
func (c *Cluster) fault(node, op, detail string) {
	c.tracer.Event(node, "fault", op, "", "", c.Now(), detail)
}

// AddNode allocates a listener address for a logical name and returns
// the bare runtime to install programs on.
func (c *Cluster) AddNode(name string, opts ...overlog.Option) (*overlog.Runtime, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		return nil, fmt.Errorf("live: duplicate node %q", name)
	}
	addr, release, err := reserveAddr()
	if err != nil {
		return nil, err
	}
	n := &node{name: name, addr: addr, release: release, rt: overlog.NewRuntime(addr, opts...)}
	telemetry.AttachTracer(c.tracer, addr, n.rt, c.Now)
	c.nodes[name], c.nodes[addr] = n, n
	c.order = append(c.order, name)
	return n.rt, nil
}

// lastPort walks the ports below the ephemeral range (32768 and up on
// Linux, 49152 and up elsewhere), from a random point, so concurrent
// test processes rarely walk the same ports.
var lastPort = atomic.Int64{}

func init() { lastPort.Store(rand.Int63n(12000)) }

// reserveAddr picks a free localhost port for a node and keeps it
// bound, without listening, until release is called at the first boot:
// no other process can take it meanwhile, and a dial to it is refused,
// so a frame sent there before the boot is dropped like one to a
// killed node. Only between the release and the boot's listen, one
// call apart, is the port free. It stays below the ephemeral range,
// where the kernel picks the local ports of outbound connections: a
// node's peers keep dialing while it is down, and none of theirs may
// take its port.
func reserveAddr() (addr string, release func(), err error) {
	for i := 0; i < 1000; i++ {
		port := 20000 + int(lastPort.Add(1)%12000)
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
		if err != nil {
			return "", nil, err
		}
		if syscall.Bind(fd, &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}}) == nil {
			return fmt.Sprintf("127.0.0.1:%d", port), func() { syscall.Close(fd) }, nil
		}
		syscall.Close(fd)
	}
	return "", nil, fmt.Errorf("live: no free port in 20000-31999")
}

// Nodes returns every logical name in creation order.
func (c *Cluster) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// with runs fn on a node's record under the lock.
func (c *Cluster) with(name string, fn func(n *node)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("live: no node %q", name)
	}
	fn(n)
	return nil
}

// Addr resolves a logical name to its dialable address.
func (c *Cluster) Addr(name string) (addr string) {
	c.with(name, func(n *node) { addr = n.addr })
	return addr
}

// AttachService registers data-plane glue (same sim.Service values the
// simulator attaches). Call before Run.
func (c *Cluster) AttachService(name string, svc sim.Service) error {
	return c.with(name, func(n *node) { n.svcs = append(n.svcs, svc) })
}

// SetSpec registers the node's crash-restart recipe — the identical
// sim.NodeSpec the simulator uses, including chaos.WrapSpec layering.
func (c *Cluster) SetSpec(name string, spec sim.NodeSpec) error {
	return c.with(name, func(n *node) { n.spec = spec })
}

// boot starts one node incarnation: listener up, clock, fault plane and
// telemetry wired, step loop running. Caller holds c.mu.
func (c *Cluster) boot(n *node) error {
	if n.release != nil {
		n.release()
		n.release = nil
	}
	var tcp *transport.TCP
	nd := transport.NewNode(n.rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	name := n.name
	nd.OnError = func(err error) { c.fail(fmt.Errorf("node %s: %w", name, err)) }
	for _, svc := range n.svcs {
		if err := nd.AttachService(svc); err != nil {
			return err
		}
	}
	var err error
	tcp, err = transport.ListenTCP(nd, n.addr)
	if err != nil {
		return fmt.Errorf("live: listen %s (%s): %w", n.name, n.addr, err)
	}
	tcp.SetClock(c.clock)
	tcp.SetTelemetry(c.stats)
	tcp.SetTracer(c.tracer)
	tcp.SetFaults(c.faults)
	tcp.SetDialBackoff(redialBase, redialCap)
	n.nd, n.tcp = nd, tcp
	go nd.Run()
	return nil
}

func (c *Cluster) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

// Err returns the first infrastructure error (node step failure, failed
// restart), or nil.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) == 0 {
		return nil
	}
	return c.errs[0]
}

// Kill stops a node: step loop halted, listener and connections closed.
// The runtime is retained frozen, exactly like sim.Cluster.Kill.
func (c *Cluster) Kill(name string) {
	var nd *transport.Node
	var tcp *transport.TCP
	c.with(name, func(n *node) { nd, tcp, n.nd, n.tcp = n.nd, n.tcp, nil, nil })
	if nd != nil {
		// Stop outside the lock: the step loop may be mid-Send.
		nd.Stop()
		tcp.Close()
		c.fault(name, "kill", "")
	}
}

// Killed reports whether a booted node is down now, as
// sim.Cluster.Killed does.
func (c *Cluster) Killed(name string) (down bool) {
	c.with(name, func(n *node) { down = c.started && n.nd == nil })
	return down
}

// Revive resumes a killed node with every table intact: a fresh step
// loop and listener over the retained runtime. A failed boot surfaces
// through Err.
func (c *Cluster) Revive(name string) {
	var err error
	c.with(name, func(n *node) {
		if n.nd == nil && c.started && !c.closed {
			c.fault(name, "revive", "")
			err = c.boot(n)
		}
	})
	if err != nil {
		c.fail(err)
	}
}

// Restart crash-restarts a node through its NodeSpec: soft state is
// lost with the old runtime, and the durable tables are restored after
// the spec installs — the same recovery path (overlog.Restart) the
// simulator exercises. A running node is killed first (sim schedules
// always Kill before Restart; a direct call gets the same semantics).
func (c *Cluster) Restart(name string) error {
	c.Kill(name)
	var err error
	if nerr := c.with(name, func(n *node) {
		if c.closed {
			return
		}
		if n.spec == nil {
			err = fmt.Errorf("live: node %q has no restart spec", name)
			return
		}
		fresh := overlog.NewRuntime(n.addr)
		telemetry.AttachTracer(c.tracer, n.addr, fresh, c.Now)
		var svcs []sim.Service
		if err = overlog.Restart(n.rt, fresh, func(rt *overlog.Runtime) (err error) {
			svcs, err = n.spec(rt)
			return err
		}); err != nil {
			err = fmt.Errorf("live: restart %s: %w", name, err)
			return
		}
		n.rt, n.svcs = fresh, svcs
		c.fault(name, "restart", "")
		err = c.boot(n)
	}); nerr != nil {
		return nerr
	}
	return err
}

// Partition cuts the link between two logical nodes (both directions).
func (c *Cluster) Partition(a, b string) {
	c.faults.Partition(c.Addr(a), c.Addr(b))
	c.fault(a, "partition", a+"|"+b)
}

// Heal restores a cut link.
func (c *Cluster) Heal(a, b string) {
	c.faults.Heal(c.Addr(a), c.Addr(b))
	c.fault(a, "heal", a+"|"+b)
}

// SetDropRate sets the global message-loss probability, returning the
// previous rate (the contract sim.Cluster.SetDropRate has).
func (c *Cluster) SetDropRate(rate float64) float64 {
	c.fault("", "loss", fmt.Sprintf("rate=%.3f", rate))
	return c.faults.SetLossRate(rate)
}

// SlowLink adds latMS of one-way delay to a link; 0 clears it.
func (c *Cluster) SlowLink(a, b string, latMS int64) {
	c.faults.SlowLink(c.Addr(a), c.Addr(b), time.Duration(latMS)*time.Millisecond)
	c.fault(a, "slow-link", fmt.Sprintf("%s|%s +%dms", a, b, latMS))
}

// Inject delivers a tuple into a node's inbox after delayMS (dropped if
// the node is down then, as a message to a dead simulated node would
// be). One made before the first Run waits for the boot, as the
// simulator's queue holds it for the first step.
func (c *Cluster) Inject(name string, tp overlog.Tuple, delayMS int64) {
	if delayMS > 0 {
		c.At(c.Now()+delayMS, func() error { c.Inject(name, tp, 0); return nil })
		return
	}
	var nd *transport.Node
	c.with(name, func(n *node) {
		if nd = n.nd; !c.started {
			c.pending = append(c.pending, func() { c.Inject(name, tp, 0) })
		}
	})
	if nd != nil {
		nd.Deliver(tp)
	}
}

// RunOn serializes fn against a node's runtime: through the step loop's
// lock while the node runs, directly on the frozen runtime when down.
func (c *Cluster) RunOn(name string, fn func(*overlog.Runtime)) {
	var nd *transport.Node
	var rt *overlog.Runtime
	c.with(name, func(n *node) { nd, rt = n.nd, n.rt })
	switch {
	case nd != nil:
		nd.Runtime(fn)
	case rt != nil:
		fn(rt)
	}
}

// At runs fn at schedule time ms, before the nodes' own timers of that
// instant, as sim.Cluster.At does; an error surfaces through Err.
func (c *Cluster) At(ms int64, fn func() error) {
	c.clock.At(ms, func() {
		if err := fn(); err != nil {
			c.fail(err)
		}
	})
}

// Run lets the cluster run until schedule time untilMS, after all the
// work of that instant, and returns Err. The first Run boots the nodes.
func (c *Cluster) Run(untilMS int64) error {
	c.mu.Lock()
	var err error
	for i := 0; !c.started && i < len(c.order) && err == nil; i++ {
		err = c.boot(c.nodes[c.order[i]])
	}
	c.started = true
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	if err != nil {
		return err
	}
	for _, inject := range pending {
		inject()
	}
	if d := untilMS - c.Now(); d >= 0 {
		c.clock.Sleep(time.Duration(d) * time.Millisecond)
	}
	return c.Err()
}

// RunUntil runs until cond holds, checking it every millisecond, or
// until maxMS; it reports whether cond held.
func (c *Cluster) RunUntil(cond func() bool, maxMS int64) (bool, error) {
	for !cond() {
		if err := c.Run(c.Now() + 1); err != nil || c.Now() >= maxMS {
			return cond(), err
		}
	}
	return true, c.Err()
}

// Close stops every running node. Pending clock waits never fire: the
// goroutine that holds the clock has stopped waiting on it.
func (c *Cluster) Close() {
	c.mu.Lock()
	var running []*node
	for _, name := range c.order {
		n := c.nodes[name]
		if n.release != nil {
			n.release()
			n.release = nil
		}
		if n.nd != nil && !c.closed {
			running = append(running, n)
		}
	}
	c.closed = true
	c.mu.Unlock()
	for _, n := range running {
		n.nd.Stop()
		n.tcp.Close()
	}
}
