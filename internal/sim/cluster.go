// Package sim provides a deterministic discrete-event simulator that
// drives a cluster of Overlog runtimes over a configurable network
// model (per-link latency, message loss, partitions, node failures).
//
// The BOOM Analytics evaluation ran on EC2; this simulator is the
// substitution that preserves the evaluation's relevant behaviour:
// protocol ordering, queueing, and failure interleavings are all
// exercised for real, while the wall clock is virtual, so hundred-node
// experiments run in milliseconds and are perfectly repeatable.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/overlog"
	"repro/internal/telemetry"
)

// LatencyModel returns the one-way delay in milliseconds for a message.
type LatencyModel func(from, to string, r *rand.Rand) int64

// ConstLatency returns a fixed one-way delay.
func ConstLatency(ms int64) LatencyModel {
	return func(_, _ string, _ *rand.Rand) int64 { return ms }
}

// UniformLatency returns delays uniform in [lo, hi].
func UniformLatency(lo, hi int64) LatencyModel {
	return func(_, _ string, r *rand.Rand) int64 {
		if hi <= lo {
			return lo
		}
		return lo + r.Int63n(hi-lo+1)
	}
}

// Injection is a tuple a Service wants delivered, after DelayMS of
// simulated time (local processing or modeled work such as running a
// map task).
type Injection struct {
	To      string
	Tuple   overlog.Tuple
	DelayMS int64
}

// Env is the narrow view of the driver a Service may depend on (the
// virtual clock here; the wall clock under the real-time driver in
// internal/transport). Keeping services driver-agnostic lets the same
// data-plane glue run in simulation and over TCP.
type Env interface {
	Now() int64
}

// Service is imperative glue attached to a node: the data-plane code
// that the BOOM papers kept in Java (chunk I/O, task execution). It
// observes watched-table events from its node's runtime and responds by
// injecting tuples, possibly after simulated work time.
type Service interface {
	// Tables lists the tables whose insert events the service observes.
	Tables() []string
	// OnEvent handles one insert event and returns injections.
	OnEvent(env Env, ev overlog.WatchEvent) []Injection
}

// event is one scheduled delivery in the simulation.
type event struct {
	time  int64
	seq   int64 // tie-break for determinism
	to    string
	tuple overlog.Tuple
}

// timer is one scheduled callback (fault injection, probes). Timers
// fire at their virtual time, before any message deliveries due at the
// same instant, in (time, seq) order.
type timer struct {
	time int64
	seq  int64
	fn   func() error
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// NodeSpec rebuilds a node after a crash-restart: install programs on
// the fresh runtime (and restore whatever the node's durability model
// says survived the crash — prev is the crashed runtime, frozen since
// the kill) and return the services to attach. Soft state not copied
// explicitly is lost, unlike Revive which resumes with every table
// intact.
type NodeSpec func(prev, fresh *overlog.Runtime) ([]Service, error)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// node bundles a runtime with its attached services and event buffer.
type node struct {
	addr     string
	rt       *overlog.Runtime
	services []Service
	buffer   []overlog.WatchEvent // events raised during the current step
	killed   bool
	spec     NodeSpec // rebuild recipe for crash-restart; nil = Revive only

	// ord is the creation index; step order and wake-heap ties are
	// resolved by it, which is what keeps the event-driven scheduler's
	// step order identical to the old full-scan-of-c.order scheduler.
	ord int
	// wake caches rt.NextWake() while the node sits in the wake heap
	// (wpos >= 0; -1 = not in the heap). The cache is refreshed at
	// every point NextWake can change: after the node steps, on
	// Install (via the runtime's wake hook), and on kill/revive/
	// restart. Between those points the cached value is authoritative,
	// so the scheduler never polls idle nodes.
	wake int64
	wpos int
	// inbox accumulates this step's deliveries (reused scratch — the
	// per-step pending map of the old scheduler, without the per-step
	// allocation).
	inbox []overlog.Tuple
	// stamp marks membership in the current step's active set.
	stamp int64
}

// Cluster is the simulation: a set of nodes, a virtual clock, and a
// time-ordered delivery queue.
type Cluster struct {
	nodes   map[string]*node
	order   []string // creation order, for deterministic iteration
	queue   eventHeap
	timers  timerHeap
	now     int64
	seq     int64
	rng     *rand.Rand
	latency LatencyModel
	// dropRate is applied to inter-node messages (not self-deliveries).
	dropRate   float64
	partitions map[[2]string]bool
	// linkExtra adds per-link one-way delay on top of the latency model
	// (SlowLink fault injection).
	linkExtra map[[2]string]int64

	// serviceTime, when set, models single-threaded servers: delivering
	// a tuple to a node occupies it for serviceTime(node, table) ms, and
	// deliveries queue behind one another (an M/D/1-style model). This
	// is how master CPU saturation — invisible in pure virtual time —
	// becomes observable in the scale-up experiment.
	serviceTime func(node, table string) int64
	busyUntil   map[string]int64

	// Delivered counts messages by destination table, a cheap built-in
	// network monitor used by the monitoring experiment.
	Delivered map[string]int64
	Dropped   int64

	// MaxSteps guards against livelock in broken protocols.
	MaxSteps int64
	steps    int64

	// Optional telemetry: a registry shared by every node (metrics are
	// labelled per node) and a cluster-wide event journal recording
	// inter-node sends with trace IDs — the simulated counterpart of
	// the TCP transport's instrumentation, without the HTTP server.
	reg     *telemetry.Registry
	journal *telemetry.Journal
	tracer  *telemetry.Tracer

	// provCap > 0 enables wildcard derivation capture (sys::prov "*")
	// on every node, surviving crash-restarts. See WithProvenance.
	provCap int

	// wake is the wake index: live nodes with a pending runtime wake
	// (periodic or deferred tuples), ordered by (wake time, ord). With
	// it, finding the next instant and the nodes due at it is
	// O(log n) in *waking* nodes — idle nodes are simply absent.
	wake wakeHeap

	// Reused per-step scratch (see Step): the active node set, the
	// phase-1 work items, and a free list for delivery events. All
	// grow to the high-water mark once and then recycle, keeping the
	// steady-state dispatch path allocation-free.
	active    []*node
	runnable  []stepResult
	sorter    nodeSorter
	eventPool []*event
	stamp     int64
}

// wakeHeap is an indexed min-heap of nodes keyed by (wake, ord); each
// node tracks its position (wpos) so refreshWake can Fix/Remove in
// O(log n) without searching.
type wakeHeap []*node

func (h wakeHeap) Len() int { return len(h) }
func (h wakeHeap) Less(i, j int) bool {
	if h[i].wake != h[j].wake {
		return h[i].wake < h[j].wake
	}
	return h[i].ord < h[j].ord
}
func (h wakeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].wpos = i
	h[j].wpos = j
}
func (h *wakeHeap) Push(x interface{}) {
	n := x.(*node)
	n.wpos = len(*h)
	*h = append(*h, n)
}
func (h *wakeHeap) Pop() interface{} {
	old := *h
	l := len(old)
	n := old[l-1]
	old[l-1] = nil
	n.wpos = -1
	*h = old[:l-1]
	return n
}

// refreshWake re-syncs a node's wake-heap entry with its runtime's
// NextWake. Call after anything that can change it; cheap when
// nothing did.
func (c *Cluster) refreshWake(n *node) {
	w := int64(-1)
	if !n.killed {
		w = n.rt.NextWake()
	}
	if n.wpos >= 0 {
		if w < 0 {
			heap.Remove(&c.wake, n.wpos)
		} else if w != n.wake {
			n.wake = w
			heap.Fix(&c.wake, n.wpos)
		}
		return
	}
	if w >= 0 {
		n.wake = w
		heap.Push(&c.wake, n)
	}
}

// nodeSorter sorts the active set back into creation order without
// allocating (sort.Slice's closure would).
type nodeSorter struct{ ns []*node }

func (s *nodeSorter) Len() int           { return len(s.ns) }
func (s *nodeSorter) Less(i, j int) bool { return s.ns[i].ord < s.ns[j].ord }
func (s *nodeSorter) Swap(i, j int)      { s.ns[i], s.ns[j] = s.ns[j], s.ns[i] }

func (c *Cluster) getEvent() *event {
	if l := len(c.eventPool); l > 0 {
		e := c.eventPool[l-1]
		c.eventPool = c.eventPool[:l-1]
		return e
	}
	return &event{}
}

func (c *Cluster) putEvent(e *event) {
	e.tuple = overlog.Tuple{} // release the payload
	c.eventPool = append(c.eventPool, e)
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithLatency sets the link latency model (default: constant 1ms).
func WithLatency(m LatencyModel) Option { return func(c *Cluster) { c.latency = m } }

// WithDropRate sets the probability an inter-node message is lost.
func WithDropRate(p float64) Option { return func(c *Cluster) { c.dropRate = p } }

// WithClusterSeed seeds the simulation RNG.
func WithClusterSeed(seed int64) Option {
	return func(c *Cluster) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithServiceTime installs a per-delivery processing-cost model; return
// 0 for tuples/nodes that should remain free.
func WithServiceTime(fn func(node, table string) int64) Option {
	return func(c *Cluster) { c.serviceTime = fn }
}

// WithTelemetry installs a metrics registry (every node added later is
// instrumented, labelled by address) and an optional shared journal
// that records inter-node message flow with trace IDs.
func WithTelemetry(reg *telemetry.Registry, j *telemetry.Journal) Option {
	return func(c *Cluster) {
		c.reg = reg
		c.journal = j
	}
}

// WithTracer installs a cluster-wide span tracer. The sim stamps all
// spans itself in the phase-2 merge — rule-fire spans when a
// node consumed traced tuples, network spans when a traced envelope
// or service injection crosses a link — with virtual-clock
// timestamps and per-node span counters, so span assembly is
// bit-identical across runs.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(c *Cluster) { c.tracer = tr }
}

// WithProvenance enables derivation-lineage capture on every node —
// current and future, including crash-restarted incarnations — with a
// per-table ring of capN records (overlog.DefaultProvenanceCap when
// capN <= 0). Chaos scenarios use this so a violating schedule can
// explain its first bad tuple.
func WithProvenance(capN int) Option {
	return func(c *Cluster) {
		if capN <= 0 {
			capN = overlog.DefaultProvenanceCap
		}
		c.provCap = capN
	}
}

// NewCluster creates an empty cluster.
func NewCluster(opts ...Option) *Cluster {
	c := &Cluster{
		nodes:      make(map[string]*node),
		latency:    ConstLatency(1),
		rng:        rand.New(rand.NewSource(1)),
		partitions: make(map[[2]string]bool),
		linkExtra:  make(map[[2]string]int64),
		Delivered:  make(map[string]int64),
		MaxSteps:   50_000_000,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Now returns the virtual clock in milliseconds.
func (c *Cluster) Now() int64 { return c.now }

// Steps returns the number of scheduler steps taken so far (each step
// advances the clock to one virtual instant and runs every node active
// at that instant).
func (c *Cluster) Steps() int64 { return c.steps }

// AddNode creates a runtime for addr and registers it.
func (c *Cluster) AddNode(addr string, opts ...overlog.Option) (*overlog.Runtime, error) {
	if _, dup := c.nodes[addr]; dup {
		return nil, fmt.Errorf("sim: duplicate node %q", addr)
	}
	rt := overlog.NewRuntime(addr, opts...)
	if c.reg != nil {
		telemetry.AttachRuntime(c.reg, addr, rt)
	}
	if c.provCap > 0 {
		rt.EnableProvenance("*", c.provCap)
	}
	n := &node{addr: addr, rt: rt, ord: len(c.order), wpos: -1}
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		n.buffer = append(n.buffer, ev)
	})
	// Installing a program can add periodics at any point after
	// AddNode; the hook keeps the wake index honest without the
	// cluster having to poll.
	rt.SetWakeHook(func() { c.refreshWake(n) })
	c.nodes[addr] = n
	c.order = append(c.order, addr)
	return rt, nil
}

// MustAddNode is AddNode panicking on error (tests, examples).
func (c *Cluster) MustAddNode(addr string, opts ...overlog.Option) *overlog.Runtime {
	rt, err := c.AddNode(addr, opts...)
	if err != nil {
		panic(err)
	}
	return rt
}

// Node returns the runtime for addr, or nil.
func (c *Cluster) Node(addr string) *overlog.Runtime {
	if n, ok := c.nodes[addr]; ok {
		return n.rt
	}
	return nil
}

// Nodes returns all node addresses in creation order.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.order...) }

// Runtimes returns every node's current runtime in creation order —
// the peer set a cross-node provenance chase consults.
func (c *Cluster) Runtimes() []*overlog.Runtime {
	out := make([]*overlog.Runtime, 0, len(c.order))
	for _, addr := range c.order {
		out = append(out, c.nodes[addr].rt)
	}
	return out
}

// AttachService registers glue code on a node and watches its tables.
func (c *Cluster) AttachService(addr string, svc Service) error {
	n, ok := c.nodes[addr]
	if !ok {
		return fmt.Errorf("sim: AttachService: unknown node %q", addr)
	}
	for _, t := range svc.Tables() {
		if err := n.rt.AddWatch(t, "i"); err != nil {
			return err
		}
	}
	n.services = append(n.services, svc)
	return nil
}

// Kill marks a node failed: it stops stepping, and messages to or from
// it are dropped. State is retained (a killed master's successor does
// not read it; retention only aids post-mortem inspection in tests).
// Any service-time backlog is discarded: a dead server's queue does not
// survive into its next incarnation.
func (c *Cluster) Kill(addr string) {
	if n, ok := c.nodes[addr]; ok {
		n.killed = true
		delete(c.busyUntil, addr)
		c.refreshWake(n)
		c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: addr, Kind: "fault", Detail: "kill"})
	}
}

// Revive clears the failed mark. The node resumes from retained state.
func (c *Cluster) Revive(addr string) {
	if n, ok := c.nodes[addr]; ok {
		n.killed = false
		c.refreshWake(n)
		c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: addr, Kind: "fault", Detail: "revive"})
	}
}

// SetSpec registers the rebuild recipe Restart uses for addr.
func (c *Cluster) SetSpec(addr string, spec NodeSpec) error {
	n, ok := c.nodes[addr]
	if !ok {
		return fmt.Errorf("sim: SetSpec: unknown node %q", addr)
	}
	n.spec = spec
	return nil
}

// Restart is a true crash-restart: the node's runtime is discarded and
// rebuilt from its registered NodeSpec, so all soft state (tables not
// explicitly restored by the spec, pending deferred tuples, periodic
// phases) is lost. The crashed runtime is passed to the spec so it can
// model stable storage by copying durable tables forward.
func (c *Cluster) Restart(addr string) error {
	n, ok := c.nodes[addr]
	if !ok {
		return fmt.Errorf("sim: Restart: unknown node %q", addr)
	}
	if n.spec == nil {
		return fmt.Errorf("sim: Restart: node %q has no NodeSpec (use SetSpec, or Revive)", addr)
	}
	prev := n.rt
	rt := overlog.NewRuntime(addr)
	if c.reg != nil {
		telemetry.AttachRuntime(c.reg, addr, rt)
	}
	if c.provCap > 0 {
		rt.EnableProvenance("*", c.provCap)
	}
	n.rt = rt
	n.services = nil
	n.buffer = nil
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		n.buffer = append(n.buffer, ev)
	})
	// The wake hook fires during the spec's installs below, while the
	// node is still marked killed (refreshWake ignores killed nodes);
	// the explicit refresh after un-killing picks the final state up.
	rt.SetWakeHook(func() { c.refreshWake(n) })
	svcs, err := n.spec(prev, rt)
	if err != nil {
		return fmt.Errorf("sim: restart %s: %w", addr, err)
	}
	for _, svc := range svcs {
		if err := c.AttachService(addr, svc); err != nil {
			return err
		}
	}
	n.killed = false
	c.refreshWake(n)
	delete(c.busyUntil, addr)
	c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: addr, Kind: "fault", Detail: "restart"})
	return nil
}

// Killed reports whether the node is currently failed.
func (c *Cluster) Killed(addr string) bool {
	n, ok := c.nodes[addr]
	return ok && n.killed
}

// Partition cuts the link between a and b in both directions.
func (c *Cluster) Partition(a, b string) {
	c.partitions[[2]string{a, b}] = true
	c.partitions[[2]string{b, a}] = true
	c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: a, Kind: "fault", Detail: "partition from " + b})
}

// Heal restores the link between a and b.
func (c *Cluster) Heal(a, b string) {
	delete(c.partitions, [2]string{a, b})
	delete(c.partitions, [2]string{b, a})
	c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: a, Kind: "fault", Detail: "heal with " + b})
}

// SetDropRate replaces the inter-node loss probability (loss-burst
// fault injection). Returns the previous rate so bursts can restore it.
func (c *Cluster) SetDropRate(p float64) float64 {
	prev := c.dropRate
	c.dropRate = p
	return prev
}

// SlowLink adds extraMS of one-way delay to the a<->b link in both
// directions (on top of the latency model). extraMS of 0 clears it.
func (c *Cluster) SlowLink(a, b string, extraMS int64) {
	if extraMS <= 0 {
		delete(c.linkExtra, [2]string{a, b})
		delete(c.linkExtra, [2]string{b, a})
		return
	}
	c.linkExtra[[2]string{a, b}] = extraMS
	c.linkExtra[[2]string{b, a}] = extraMS
}

// At schedules fn to run at virtual time t (fault injection, probes).
// Due timers fire before message deliveries at the same instant, in
// registration order; an error from fn aborts the simulation. Times in
// the past run on the next step.
func (c *Cluster) At(t int64, fn func() error) {
	c.seq++
	heap.Push(&c.timers, &timer{time: t, seq: c.seq, fn: fn})
}

// Inject schedules an external tuple delivery after delayMS, applying
// the service-time queueing model when configured.
func (c *Cluster) Inject(to string, tp overlog.Tuple, delayMS int64) {
	if delayMS < 0 {
		delayMS = 0
	}
	when := c.now + delayMS
	dead := false
	if n, ok := c.nodes[to]; ok {
		dead = n.killed
	}
	if c.serviceTime != nil && !dead {
		if svc := c.serviceTime(to, tp.Table); svc > 0 {
			if c.busyUntil == nil {
				c.busyUntil = make(map[string]int64)
			}
			if b := c.busyUntil[to]; b > when {
				when = b
			}
			when += svc
			c.busyUntil[to] = when
		}
	}
	c.seq++
	e := c.getEvent()
	//boomvet:allow(ownership) injected tuples are caller-owned by contract: envelopes are cloned at emission (routeHead) and external injections are freshly built
	e.time, e.seq, e.to, e.tuple = when, c.seq, to, tp
	heap.Push(&c.queue, e)
}

// Telemetry returns the cluster's registry (nil unless WithTelemetry).
func (c *Cluster) Telemetry() *telemetry.Registry { return c.reg }

// Journal returns the cluster's event journal (nil unless installed).
func (c *Cluster) Journal() *telemetry.Journal { return c.journal }

// Tracer returns the cluster's span tracer (nil unless WithTracer).
func (c *Cluster) Tracer() *telemetry.Tracer { return c.tracer }

// send routes a runtime-emitted envelope through the network model.
func (c *Cluster) send(from string, env overlog.Envelope) {
	if c.partitions[[2]string{from, env.To}] {
		c.Dropped++
		c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: from, Kind: "drop",
			Table: env.Tuple.Table, TraceID: telemetry.TraceIDOf(env.Tuple),
			Detail: "partitioned from " + env.To})
		return
	}
	if from != env.To && c.dropRate > 0 && c.rng.Float64() < c.dropRate {
		c.Dropped++
		c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: from, Kind: "drop",
			Table: env.Tuple.Table, TraceID: telemetry.TraceIDOf(env.Tuple),
			Detail: "lossy link to " + env.To})
		return
	}
	if c.journal != nil && from != env.To {
		c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: from, Kind: "send",
			Table: env.Tuple.Table, TraceID: telemetry.TraceIDOf(env.Tuple),
			Detail: "to " + env.To})
	}
	delay := int64(0)
	if from != env.To {
		delay = c.latency(from, env.To, c.rng) + c.linkExtra[[2]string{from, env.To}]
		if delay < 1 {
			delay = 1
		}
	} else {
		delay = 1
	}
	c.stampNetSpan(from, env.To, env.Tuple, delay)
	c.Inject(env.To, env.Tuple, delay)
}

// stampNetSpan records the wire hop of a traced cross-node emission:
// EndMS covers network delay only, so the gap to the destination's
// next rule-fire span is the service-queueing component. Runs only in
// the phase-2 merge, in creation order, which is what keeps per-node
// span counters and ring order deterministic.
func (c *Cluster) stampNetSpan(from, to string, tp overlog.Tuple, delay int64) {
	if c.tracer == nil || from == to {
		return
	}
	trace := telemetry.TraceIDOf(tp)
	if trace == "" {
		return
	}
	id := c.tracer.NextID(from)
	c.tracer.Record(telemetry.Span{
		TraceID: trace, SpanID: id,
		ParentID: c.tracer.Active(from, trace),
		Node:     from, Kind: "net", Op: tp.Table,
		StartMS: c.now, EndMS: c.now + delay, Detail: "to " + to,
	})
	c.tracer.SetActive(to, trace, id)
}

// stampRuleSpans records one rule-fire span per distinct trace a
// node's step consumed, parented to the hop that delivered it; the
// span becomes the node's active span so this step's sends chain
// under it. Phase 2 only, like stampNetSpan.
func (c *Cluster) stampRuleSpans(n *node, in []overlog.Tuple, outCt int) {
	if c.tracer == nil {
		return
	}
	var seen map[string]bool
	for _, tp := range in {
		trace := telemetry.TraceIDOf(tp)
		if trace == "" || seen[trace] {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, 4)
		}
		seen[trace] = true
		id := c.tracer.NextID(n.addr)
		c.tracer.Record(telemetry.Span{
			TraceID: trace, SpanID: id,
			ParentID: c.tracer.Active(n.addr, trace),
			Node:     n.addr, Kind: "rules", Op: tp.Table,
			StartMS: c.now, EndMS: c.now,
			Detail: fmt.Sprintf("out=%d", outCt),
		})
		c.tracer.SetActive(n.addr, trace, id)
	}
}

// Step processes the earliest pending work (message deliveries, fault
// timers, and periodic timer wakes) and returns false when nothing
// remains.
func (c *Cluster) Step() (bool, error) {
	next := c.peekNextTime()
	if next < 0 {
		return false, nil
	}
	if next < c.now {
		next = c.now
	}
	c.now = next

	// Fire due fault timers before deliveries at this instant, so a
	// node killed "at t" never sees messages arriving "at t".
	for len(c.timers) > 0 && c.timers[0].time <= c.now {
		tm := heap.Pop(&c.timers).(*timer)
		if err := tm.fn(); err != nil {
			return false, err
		}
	}

	// Collect the active set: nodes with deliveries due now (popped
	// from the event queue into their reused inboxes) and nodes whose
	// cached wake time is due (popped from the wake index). Idle nodes
	// are never visited. The stamp dedups nodes that appear both ways.
	c.stamp++
	c.active = c.active[:0]
	for len(c.queue) > 0 && c.queue[0].time <= c.now {
		e := heap.Pop(&c.queue).(*event)
		dst, ok := c.nodes[e.to]
		if !ok || dst.killed {
			c.Dropped++
			c.putEvent(e)
			continue
		}
		dst.inbox = append(dst.inbox, e.tuple)
		c.Delivered[e.tuple.Table]++
		if dst.stamp != c.stamp {
			dst.stamp = c.stamp
			c.active = append(c.active, dst)
		}
		c.putEvent(e)
	}
	for len(c.wake) > 0 && c.wake[0].wake <= c.now {
		n := heap.Pop(&c.wake).(*node)
		if n.stamp != c.stamp {
			n.stamp = c.stamp
			c.active = append(c.active, n)
		}
	}
	// Kills only happen in the timer phase above, so nothing in the
	// active set is dead. Restore creation order: deliveries arrive in
	// sequence order and wakes in time order, but the step order that
	// replay relies on is node creation order.
	c.sorter.ns = c.active
	sort.Sort(&c.sorter)
	c.sorter.ns = nil

	// Step every active node. Phase 1 runs each node's fixpoint
	// (node-local state only); phase 2 then merges the effects — sends
	// and service injections — in creation order. Every node of an
	// instant runs before any is flushed: recorded schedules replay
	// against that order.
	c.runnable = c.runnable[:0]
	for _, n := range c.active {
		c.runnable = append(c.runnable, stepResult{n: n, in: n.inbox})
	}
	runnable := c.runnable
	for i := range runnable {
		r := &runnable[i]
		r.out, r.err = c.runNode(r.n, r.in)
	}
	for i := range runnable {
		r := &runnable[i]
		if r.err != nil {
			return false, r.err
		}
		c.stampRuleSpans(r.n, r.in, len(r.out))
		c.flushNode(r.n, r.out)
		r.n.inbox = r.n.inbox[:0]
		c.refreshWake(r.n)
		r.out, r.in = nil, nil
	}
	c.steps++
	if c.steps > c.MaxSteps {
		return false, fmt.Errorf("sim: exceeded MaxSteps=%d at t=%dms (livelock?)", c.MaxSteps, c.now)
	}
	return true, nil
}

// stepResult carries one node's phase-1 output to its phase-2 merge.
type stepResult struct {
	n   *node
	in  []overlog.Tuple
	out []overlog.Envelope
	err error
}

// runNode is phase 1: the node's local fixpoint. It touches only the
// node's own runtime (tables, per-runtime RNG, watch buffer) and the
// telemetry registry.
func (c *Cluster) runNode(n *node, in []overlog.Tuple) ([]overlog.Envelope, error) {
	n.buffer = n.buffer[:0]
	out, err := n.rt.Step(c.now, in)
	if err != nil {
		return nil, fmt.Errorf("sim: node %s: %w", n.addr, err)
	}
	return out, nil
}

// flushNode is phase 2: merge one node's effects into cluster state,
// in creation order — it draws from the cluster RNG (latency, loss),
// allocates delivery sequence numbers, and appends to the journal.
func (c *Cluster) flushNode(n *node, out []overlog.Envelope) {
	for _, env := range out {
		c.send(n.addr, env)
	}
	// Services observe this step's watch events and inject follow-ups.
	if len(n.services) > 0 {
		events := append([]overlog.WatchEvent(nil), n.buffer...)
		for _, svc := range n.services {
			for _, ev := range events {
				if !ev.Insert {
					continue
				}
				for _, inj := range svc.OnEvent(c, ev) {
					c.sendInjection(n.addr, inj)
				}
			}
		}
	}
	n.buffer = n.buffer[:0]
}

// sendInjection routes a service injection through the same network
// fault model as runtime-emitted envelopes (send): cross-node service
// traffic respects partitions and lossy links; a partitioned datanode
// cannot keep answering reads just because its data plane is service
// glue rather than Overlog rules. Self-injections (delayed local
// work) bypass the network, like self-deliveries in send.
func (c *Cluster) sendInjection(from string, inj Injection) {
	if inj.To != from {
		if c.partitions[[2]string{from, inj.To}] {
			c.Dropped++
			c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: from, Kind: "drop",
				Table: inj.Tuple.Table, TraceID: telemetry.TraceIDOf(inj.Tuple),
				Detail: "partitioned from " + inj.To})
			return
		}
		if c.dropRate > 0 && c.rng.Float64() < c.dropRate {
			c.Dropped++
			c.journal.RecordAt(telemetry.Event{WallMS: c.now, Node: from, Kind: "drop",
				Table: inj.Tuple.Table, TraceID: telemetry.TraceIDOf(inj.Tuple),
				Detail: "lossy link to " + inj.To})
			return
		}
	}
	delay := inj.DelayMS
	if inj.To != from {
		delay += c.latency(from, inj.To, c.rng) + c.linkExtra[[2]string{from, inj.To}]
	}
	if delay < 1 {
		delay = 1
	}
	c.stampNetSpan(from, inj.To, inj.Tuple, delay)
	c.Inject(inj.To, inj.Tuple, delay)
}

// Run processes events until the queue drains or the clock passes
// untilMS (exclusive bound on new work, not a hard stop mid-step).
func (c *Cluster) Run(untilMS int64) error {
	for {
		next := c.peekNextTime()
		if next < 0 || next > untilMS {
			if untilMS > c.now {
				c.now = untilMS
			}
			return nil
		}
		ok, err := c.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// RunUntil runs until cond returns true or the clock passes maxMS.
// It returns true when the condition was met.
func (c *Cluster) RunUntil(cond func() bool, maxMS int64) (bool, error) {
	for {
		if cond() {
			return true, nil
		}
		next := c.peekNextTime()
		if next < 0 || next > maxMS {
			return cond(), nil
		}
		ok, err := c.Step()
		if err != nil {
			return false, err
		}
		if !ok {
			return cond(), nil
		}
	}
}

// peekNextTime is the earliest pending instant: the heads of the
// delivery queue, the fault-timer heap, and the wake index. O(1) —
// this is what lets a 10k-node cluster with sparse traffic step in
// time proportional to the nodes actually doing something.
func (c *Cluster) peekNextTime() int64 {
	next := int64(-1)
	if len(c.queue) > 0 {
		next = c.queue[0].time
	}
	if len(c.timers) > 0 && (next == -1 || c.timers[0].time < next) {
		next = c.timers[0].time
	}
	if len(c.wake) > 0 && (next == -1 || c.wake[0].wake < next) {
		next = c.wake[0].wake
	}
	return next
}

// DeliveredTotal sums message deliveries across tables.
func (c *Cluster) DeliveredTotal() int64 {
	var total int64
	for _, v := range c.Delivered {
		total += v
	}
	return total
}

// DeliveredByTable returns delivery counts sorted by table name.
func (c *Cluster) DeliveredByTable() []struct {
	Table string
	Count int64
} {
	keys := make([]string, 0, len(c.Delivered))
	for k := range c.Delivered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		Table string
		Count int64
	}, len(keys))
	for i, k := range keys {
		out[i].Table = k
		out[i].Count = c.Delivered[k]
	}
	return out
}
