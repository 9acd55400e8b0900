// Package live replays chaos schedules against real TCP sockets. The
// simulated harness (internal/chaos) proves the protocols correct on a
// virtual clock; this package proves the production transport — bounded
// send queues, dial backoff, framing, fault injection — keeps those
// same invariants when the bytes are real. A Cluster mirrors the
// sim.Cluster fault surface (Kill/Revive/Restart/Partition/Heal/
// SetDropRate/SlowLink) over transport.Node + transport.TCP, with the
// same NodeSpec restart recipes, so one chaos.Schedule drives both
// drivers.
//
// Schedules name nodes logically (fsm:0, dn:1); live nodes listen on
// ephemeral localhost ports, and the cluster keeps the alias map. All
// schedule times are in simulated milliseconds and are divided by
// Compress at execution, so the sim scenarios' 35-second fault plans
// replay in a few wall seconds against correspondingly scaled protocol
// timeouts.
//
// Unlike the simulator, live runs are NOT bit-replayable — goroutine
// interleaving and kernel scheduling vary. The package is deliberately
// outside boomvet's deterministic scope (see internal/govet/config.go);
// what stays deterministic is the schedule itself, which is data shared
// verbatim with the replayable sim harness.
package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// node is one live process-equivalent: a runtime stepped by a
// wall-clock Node, listening on its own TCP port.
type node struct {
	name string // logical schedule name (fsm:0, dn:1)
	addr string // 127.0.0.1:port — the runtime's LocalAddr
	rt   *overlog.Runtime
	nd   *transport.Node
	tcp  *transport.TCP
	svcs []sim.Service
	spec sim.NodeSpec
	kill bool
}

// Cluster is the live driver: real listeners, real dials, shared fault
// plane. Build nodes with AddNode, install programs on the returned
// runtimes, then Start; Apply arms a schedule's timers.
type Cluster struct {
	// Compress divides schedule times into wall time (default 10:
	// 1000 simulated ms fire 100ms after Start).
	Compress int64

	epoch  time.Time
	faults *transport.Faults
	tracer *telemetry.Tracer
	reg    *telemetry.Registry
	stats  *transport.TCPStats

	mu     sync.Mutex
	nodes  map[string]*node
	order  []string
	timers []*time.Timer
	errs   []error
	closed bool
}

// NewCluster builds an empty live cluster. The seed feeds the fault
// plane's loss sampling (the only randomness the harness itself owns).
// Every node records into the cluster's one event ring (Tracer).
func NewCluster(seed, compress int64, reg *telemetry.Registry) *Cluster {
	if compress <= 0 {
		compress = 10
	}
	return &Cluster{
		Compress: compress,
		faults:   transport.NewFaults(seed),
		tracer:   telemetry.NewTracer(0),
		reg:      reg,
		stats:    transport.NewTCPStats(reg),
		nodes:    make(map[string]*node),
	}
}

// Faults exposes the shared fault plane, so out-of-cluster participants
// (the failover client) can join it.
func (c *Cluster) Faults() *transport.Faults { return c.faults }

// Tracer returns the cluster's event ring.
func (c *Cluster) Tracer() *telemetry.Tracer { return c.tracer }

// fault records an injected fault in the event ring.
func (c *Cluster) fault(node, op, detail string) {
	now := time.Now().UnixMilli()
	c.tracer.Record(telemetry.Span{Node: node, Kind: "fault", Op: op,
		StartMS: now, EndMS: now, Detail: detail})
}

// AddNode allocates a listener address for a logical name and returns
// the bare runtime to install programs on. The node starts on Start.
func (c *Cluster) AddNode(name string) (*overlog.Runtime, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		return nil, fmt.Errorf("live: duplicate node %q", name)
	}
	addr, err := reserveAddr()
	if err != nil {
		return nil, err
	}
	n := &node{name: name, addr: addr, rt: overlog.NewRuntime(addr)}
	c.nodes[name] = n
	c.order = append(c.order, name)
	return n.rt, nil
}

// reserveAddr picks a free localhost port. The listener is closed and
// the address re-bound at Start — the usual ephemeral-port shuffle;
// collisions are possible in principle and surface as Start errors.
func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// Addr resolves a logical name to its dialable address.
func (c *Cluster) Addr(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[name]; ok {
		return n.addr
	}
	return ""
}

// AttachService registers data-plane glue (same sim.Service values the
// simulator attaches). Call before Start.
func (c *Cluster) AttachService(name string, svc sim.Service) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("live: no node %q", name)
	}
	n.svcs = append(n.svcs, svc)
	return nil
}

// SetSpec registers the node's crash-restart recipe — the identical
// sim.NodeSpec the simulator uses, including chaos.WrapSpec layering.
func (c *Cluster) SetSpec(name string, spec sim.NodeSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("live: no node %q", name)
	}
	n.spec = spec
	return nil
}

// Start boots every node: listener up, fault plane and telemetry wired,
// step loop running. It also fixes the cluster epoch that all node
// clocks — including restarted incarnations — count from.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = time.Now()
	for _, name := range c.order {
		if err := c.boot(c.nodes[name]); err != nil {
			return err
		}
	}
	return nil
}

// boot starts one node incarnation. Caller holds c.mu.
func (c *Cluster) boot(n *node) error {
	var tcp *transport.TCP
	nd := transport.NewNode(n.rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	nd.SetEpoch(c.epoch)
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
	tcp.SetTelemetry(c.stats)
	tcp.SetTracer(c.tracer)
	tcp.SetFaults(c.faults)
	// Faster redial than production defaults: compressed schedules heal
	// partitions in hundreds of wall milliseconds.
	tcp.SetDialBackoff(10*time.Millisecond, 200*time.Millisecond)
	n.nd, n.tcp, n.kill = nd, tcp, false
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
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok || n.kill {
		c.mu.Unlock()
		return
	}
	n.kill = true
	nd, tcp := n.nd, n.tcp
	c.mu.Unlock()
	// Stop outside the lock: the step loop may be mid-Send.
	nd.Stop()
	tcp.Close()
	c.fault(name, "kill", "")
}

// Revive resumes a killed node with every table intact: a fresh step
// loop and listener over the retained runtime.
func (c *Cluster) Revive(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("live: no node %q", name)
	}
	if !n.kill || c.closed {
		return nil
	}
	c.fault(name, "revive", "")
	return c.boot(n)
}

// Restart crash-restarts a node through its NodeSpec: soft state is
// lost with the old runtime, and the durable tables are restored after
// the spec installs — the same recovery path (overlog.Restart) the
// simulator exercises. A running node is killed first (sim schedules
// always Kill before Restart; a direct call gets the same semantics).
func (c *Cluster) Restart(name string) error {
	c.Kill(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("live: no node %q", name)
	}
	if n.spec == nil {
		return fmt.Errorf("live: node %q has no restart spec", name)
	}
	fresh := overlog.NewRuntime(n.addr)
	var svcs []sim.Service
	err := overlog.Restart(n.rt, fresh, func(rt *overlog.Runtime) (err error) {
		svcs, err = n.spec(rt)
		return err
	})
	if err != nil {
		return fmt.Errorf("live: restart %s: %w", name, err)
	}
	n.rt, n.svcs = fresh, svcs
	c.fault(name, "restart", "")
	return c.boot(n)
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

// SlowLink adds latMS of simulated one-way delay (compressed into wall
// time) to a link; 0 clears it.
func (c *Cluster) SlowLink(a, b string, latMS int64) {
	d := time.Duration(latMS) * time.Millisecond / time.Duration(c.Compress)
	if latMS > 0 && d <= 0 {
		d = time.Millisecond
	}
	c.faults.SlowLink(c.Addr(a), c.Addr(b), d)
	c.fault(a, "slow-link", fmt.Sprintf("%s|%s +%dms", a, b, latMS))
}

// Inject delivers a tuple into a node's inbox (dropped if killed, as a
// message to a dead simulated node would be).
func (c *Cluster) Inject(name string, tp overlog.Tuple) {
	c.mu.Lock()
	n, ok := c.nodes[name]
	alive := ok && !n.kill
	nd := (*transport.Node)(nil)
	if alive {
		nd = n.nd
	}
	c.mu.Unlock()
	if alive {
		nd.Deliver(tp)
	}
}

// RunOn serializes fn against a node's runtime: through the step loop's
// lock while the node runs, directly on the frozen runtime when killed.
func (c *Cluster) RunOn(name string, fn func(*overlog.Runtime)) {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok {
		c.mu.Unlock()
		return
	}
	if n.kill {
		rt := n.rt
		c.mu.Unlock()
		fn(rt)
		return
	}
	nd := n.nd
	c.mu.Unlock()
	nd.Runtime(fn)
}

// SimNow returns elapsed cluster time in schedule (simulated)
// milliseconds.
func (c *Cluster) SimNow() int64 {
	return time.Since(c.epoch).Milliseconds() * c.Compress
}

// SleepSim blocks until cluster time reaches simMS on the schedule
// clock.
func (c *Cluster) SleepSim(simMS int64) {
	d := time.Duration(simMS/c.Compress)*time.Millisecond - time.Since(c.epoch)
	if d > 0 {
		time.Sleep(d)
	}
}

// after arms fn at schedule time simMS (compressed to wall time,
// relative to the cluster epoch).
func (c *Cluster) after(simMS int64, fn func()) {
	d := time.Duration(simMS/c.Compress)*time.Millisecond - time.Since(c.epoch)
	if d < 0 {
		d = 0
	}
	t := time.AfterFunc(d, fn)
	c.mu.Lock()
	c.timers = append(c.timers, t)
	c.mu.Unlock()
}

// Apply arms every schedule action on the compressed wall clock — the
// live counterpart of Schedule.Apply on the simulator. Restart failures
// surface through Err.
func (c *Cluster) Apply(s chaos.Schedule) {
	for _, a := range s {
		a := a
		switch a.Kind {
		case chaos.Kill:
			c.after(a.AtMS, func() { c.Kill(a.Node) })
		case chaos.Revive:
			c.after(a.AtMS, func() {
				if err := c.Revive(a.Node); err != nil {
					c.fail(err)
				}
			})
		case chaos.CrashRestart:
			c.after(a.AtMS, func() { c.Kill(a.Node) })
			c.after(a.AtMS+a.DurMS, func() {
				if err := c.Restart(a.Node); err != nil {
					c.fail(err)
				}
			})
		case chaos.Partition:
			c.after(a.AtMS, func() { c.Partition(a.A, a.B) })
			if a.DurMS > 0 {
				c.after(a.AtMS+a.DurMS, func() { c.Heal(a.A, a.B) })
			}
		case chaos.Heal:
			c.after(a.AtMS, func() { c.Heal(a.A, a.B) })
		case chaos.LossBurst:
			c.after(a.AtMS, func() {
				prev := c.SetDropRate(a.Rate)
				c.after(a.AtMS+a.DurMS, func() { c.SetDropRate(prev) })
			})
		case chaos.SlowLink:
			c.after(a.AtMS, func() { c.SlowLink(a.A, a.B, a.LatMS) })
			if a.DurMS > 0 {
				c.after(a.AtMS+a.DurMS, func() { c.SlowLink(a.A, a.B, 0) })
			}
		}
	}
}

// Collect sweeps every node's inv_violation relation (running or
// killed) into sorted violations, mirroring chaos.Collect.
func (c *Cluster) Collect() []chaos.Violation {
	c.mu.Lock()
	names := append([]string(nil), c.order...)
	c.mu.Unlock()
	var out []chaos.Violation
	for _, name := range names {
		c.RunOn(name, func(rt *overlog.Runtime) {
			out = append(out, chaos.ScanViolations(rt)...)
		})
	}
	chaos.SortViolations(out)
	return out
}

// Close stops pending fault timers and every running node.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	timers := c.timers
	var running []*node
	for _, name := range c.order {
		if n := c.nodes[name]; !n.kill {
			n.kill = true
			running = append(running, n)
		}
	}
	c.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, n := range running {
		n.nd.Stop()
		n.tcp.Close()
	}
}
