package telemetry

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// A Span is one record of a node's event ring: a timed segment of a
// distributed trace, or a point event (StartMS == EndMS) such as a
// send, a receive, a drop or an injected fault. A trace assembles
// into a tree by ParentID, giving the per-hop latency breakdown of
// one logical request across nodes. An untraced event (a tuple whose
// table has no trace column, a fault) has an empty TraceID and no
// SpanID, so recording it costs one ring slot and nothing more.
//
// Every span is built here, by the Tracer's recording methods (the
// step hook, the wire helpers, StartOp); the drivers only say what
// happened and when. Timestamps are whatever clock the driver passed
// in: the sim's virtual milliseconds (bit-identical replay), or the
// TCP transport's clock. The Tracer itself never reads a clock.
type Span struct {
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	Node     string `json:"node"`
	// Kind classifies the record, in one vocabulary on both drivers:
	// "op" (a client-visible operation, the usual root), "rules" (a
	// runtime step that consumed tuples of this trace), "send" (an
	// emission leaving a node), "recv" (a traced emission arriving,
	// parented to its send; the gap to the send is the wire, the gap
	// to the next rules span the queue), "drop" (a message lost to a
	// fault, a full queue, a failed dial or write, or a frame the
	// receiver's program cannot hold; a traced one parents to its
	// send) and "fault" (an injected kill, restart, partition, ...).
	Kind    string `json:"kind"`
	Op      string `json:"op"`
	StartMS int64  `json:"start_ms"`
	EndMS   int64  `json:"end_ms"`
	Detail  string `json:"detail,omitempty"`
}

func (s Span) String() string {
	d := ""
	if s.Detail != "" {
		d = " " + s.Detail
	}
	return fmt.Sprintf("[%d..%d] %s %s %s(%s) id=%s parent=%s%s",
		s.StartMS, s.EndMS, s.Node, s.Kind, s.Op, s.TraceID, s.SpanID, s.ParentID, d)
}

type activeKey struct{ node, trace string }

type hopKey struct{ from, trace, to string }

// hopRef is one parking of a hop: seq tells a parking still waiting
// from one of the same key that was taken since.
type hopRef struct {
	key hopKey
	seq uint64
}

type parkedHop struct {
	span string
	seq  uint64
}

// Tracer is the event ring: a bounded ring of spans, cluster-wide
// under the sim and the live cluster and one per process under rtfs,
// that every view of a node's events reads (/debug/trace, chaos
// reports, provenance trace attachments, the sim fingerprint). It
// also carries the two pieces of cross-component context that make
// chaining work without threading span IDs through every call site:
//
//   - the ACTIVE span per (node, trace): the span a node's next
//     rule-fire for that trace should parent to;
//   - the pending HOPs per (from, trace, to): send spans recorded by
//     the runtime step hook, waiting for the driver to send their
//     emission (Sent), which puts the ID on the wire (TCP) or parents
//     the destination's recv to it (sim).
//
// All methods are mutex-guarded and none reads a clock, so recording
// is safe from concurrently stepping nodes (the TCP transport runs one
// goroutine per node); span IDs come from per-node counters, which
// stay deterministic in the sim because each node's steps are serial.
// Both context maps are bounded with FIFO eviction so abandoned
// traces cannot leak. The recording methods, Spans and Total accept a
// nil Tracer, so a driver without a ring records nothing.
type Tracer struct {
	mu       sync.Mutex
	buf      []Span
	next     int
	full     bool
	total    int64
	seq      map[string]int64
	active   map[activeKey]string
	actOrder []activeKey
	hops     map[hopKey][]parkedHop
	hopOrder []hopRef
	hopSeq   uint64
}

// DefaultSpanCap bounds the ring when NewTracer is given a
// non-positive capacity.
const DefaultSpanCap = 4096

// maxContext bounds the active and pending-hop maps.
const maxContext = 4096

// NewTracer returns a Tracer retaining the last capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{
		buf:    make([]Span, capacity),
		seq:    make(map[string]int64),
		active: make(map[activeKey]string),
		hops:   make(map[hopKey][]parkedHop),
	}
}

// nextID allocates the next span ID for node, formatted "node#n".
// Per-node counters keep IDs deterministic: a node's own allocations
// are always serial.
func (t *Tracer) nextID(node string) string {
	t.mu.Lock()
	t.seq[node]++
	n := t.seq[node]
	t.mu.Unlock()
	return fmt.Sprintf("%s#%d", node, n)
}

// Record appends a span to the ring, evicting the oldest when full.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = sp
	t.next++
	t.total++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// setActive marks span as the parent for node's next segment of
// trace.
func (t *Tracer) setActive(node, trace, span string) {
	t.mu.Lock()
	k := activeKey{node, trace}
	if _, ok := t.active[k]; !ok {
		t.actOrder = append(t.actOrder, k)
		if len(t.actOrder) > maxContext {
			delete(t.active, t.actOrder[0])
			t.actOrder = t.actOrder[1:]
		}
	}
	t.active[k] = span
	t.mu.Unlock()
}

// Active returns the current parent span for (node, trace), or ""
// when the trace is new to the node.
func (t *Tracer) Active(node, trace string) string {
	t.mu.Lock()
	id := t.active[activeKey{node, trace}]
	t.mu.Unlock()
	return id
}

// setHop parks a send span until the driver sends the matching
// (from, trace, to) emission. Parkings of one key queue in step order,
// so a step that emits the same hop twice hands each send its own
// span. Eviction drops the oldest parking, if it is still waiting.
func (t *Tracer) setHop(from, trace, to, span string) {
	t.mu.Lock()
	k := hopKey{from, trace, to}
	t.hopSeq++
	t.hops[k] = append(t.hops[k], parkedHop{span, t.hopSeq})
	t.hopOrder = append(t.hopOrder, hopRef{k, t.hopSeq})
	if len(t.hopOrder) > maxContext {
		old := t.hopOrder[0]
		t.hopOrder = t.hopOrder[1:]
		if q := t.hops[old.key]; len(q) > 0 && q[0].seq == old.seq {
			t.popHop(old.key, q)
		}
	}
	t.mu.Unlock()
}

// takeHop consumes and returns the oldest parked send span for (from,
// trace, to), or "" when the emission did not come from a traced
// runtime step.
func (t *Tracer) takeHop(from, trace, to string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := hopKey{from, trace, to}
	if q := t.hops[k]; len(q) > 0 {
		return t.popHop(k, q)
	}
	return ""
}

// popHop (t.mu held) removes and returns the head of k's queue q.
func (t *Tracer) popHop(k hopKey, q []parkedHop) string {
	if len(q) == 1 {
		delete(t.hops, k)
	} else {
		t.hops[k] = q[1:]
	}
	return q[0].span
}

// Total reports how many spans were ever recorded (including ones
// the ring has since evicted).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	spans, _ := t.snapshot()
	return spans
}

// snapshot returns the retained spans, oldest first, and the count
// ever recorded, read under one lock so that the two agree.
func (t *Tracer) snapshot() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.buf[:t.next]...), t.total
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out, t.total
}

// ByTrace returns the retained spans of one trace in canonical order
// (see SortSpans) — ring append order is not deterministic when
// co-timed nodes record concurrently, the canonical order is.
func (t *Tracer) ByTrace(id string) []Span {
	var out []Span
	for _, sp := range t.Spans() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	SortSpans(out)
	return out
}

// RenderTrace returns one trace's spans rendered one per line — the
// shape provenance.Options.TraceEvents expects.
func (t *Tracer) RenderTrace(id string) []string {
	spans := t.ByTrace(id)
	if len(spans) == 0 {
		return nil
	}
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.String()
	}
	return out
}

// TraceSummary is one distinct trace present in the ring.
type TraceSummary struct {
	TraceID string   `json:"trace_id"`
	Spans   int      `json:"spans"`
	Nodes   []string `json:"nodes"`
	StartMS int64    `json:"start_ms"`
	EndMS   int64    `json:"end_ms"`
}

// Traces summarizes the distinct traces retained in the ring (see
// SummarizeTraces).
func (t *Tracer) Traces() []TraceSummary { return SummarizeTraces(t.Spans()) }

// SummarizeTraces groups spans by trace, ordered by first start time
// then trace ID. Untraced events belong to none.
func SummarizeTraces(spans []Span) []TraceSummary {
	byID := make(map[string]*TraceSummary)
	nodes := make(map[string]map[string]bool)
	for _, sp := range spans {
		if sp.TraceID == "" {
			continue
		}
		s := byID[sp.TraceID]
		if s == nil {
			s = &TraceSummary{TraceID: sp.TraceID, StartMS: sp.StartMS, EndMS: sp.EndMS}
			byID[sp.TraceID] = s
			nodes[sp.TraceID] = make(map[string]bool)
		}
		s.Spans++
		nodes[sp.TraceID][sp.Node] = true
		if sp.StartMS < s.StartMS {
			s.StartMS = sp.StartMS
		}
		if sp.EndMS > s.EndMS {
			s.EndMS = sp.EndMS
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]TraceSummary, 0, len(ids))
	for _, id := range ids {
		s := byID[id]
		for n := range nodes[id] {
			s.Nodes = append(s.Nodes, n)
		}
		sort.Strings(s.Nodes)
		out = append(out, *s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].StartMS < out[j].StartMS
	})
	return out
}

// SortSpans puts spans in canonical order: start time, then node,
// then span ID. The order is a pure function of span content, which
// is what makes sim-driver trace assembly bit-identical across runs
// regardless of ring interleaving.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartMS != b.StartMS {
			return a.StartMS < b.StartMS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.SpanID < b.SpanID
	})
}

// SpanNode is one vertex of an assembled trace tree.
type SpanNode struct {
	Span
	Children []*SpanNode
}

// AssembleTrace builds the span tree(s) for one trace from a flat
// span set. Spans whose parent is missing (evicted from the ring, or
// a true root) become roots. Input order is irrelevant; output is
// canonical.
func AssembleTrace(spans []Span) []*SpanNode {
	sorted := append([]Span(nil), spans...)
	SortSpans(sorted)
	byID := make(map[string]*SpanNode, len(sorted))
	nodes := make([]*SpanNode, len(sorted))
	for i, sp := range sorted {
		n := &SpanNode{Span: sp}
		nodes[i] = n
		if sp.SpanID != "" {
			byID[sp.SpanID] = n
		}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p := byID[n.ParentID]; p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// TraceNodes returns the distinct nodes a span set touches, sorted.
func TraceNodes(spans []Span) []string {
	seen := make(map[string]bool)
	for _, sp := range spans {
		seen[sp.Node] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Waterfall renders an assembled trace as an indented text tree with
// a proportional time bar per span — the `\trace` / boom-trace view.
func Waterfall(roots []*SpanNode) string {
	var lo, hi int64
	first := true
	var scan func(n *SpanNode)
	scan = func(n *SpanNode) {
		if first || n.StartMS < lo {
			lo = n.StartMS
		}
		if first || n.EndMS > hi {
			hi = n.EndMS
		}
		first = false
		for _, c := range n.Children {
			scan(c)
		}
	}
	for _, r := range roots {
		scan(r)
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	const width = 32
	var b strings.Builder
	var render func(n *SpanNode, depth int)
	render = func(n *SpanNode, depth int) {
		start := int((n.StartMS - lo) * width / span)
		end := int((n.EndMS - lo) * width / span)
		if end <= start {
			end = start + 1
		}
		if end > width {
			end = width
		}
		if start >= width {
			start = width - 1
		}
		bar := strings.Repeat(" ", start) + strings.Repeat("=", end-start) +
			strings.Repeat(" ", width-end)
		label := fmt.Sprintf("%s%s %s %s", strings.Repeat("  ", depth), n.Node, n.Kind, n.Op)
		d := ""
		if n.Detail != "" {
			d = "  " + n.Detail
		}
		fmt.Fprintf(&b, "%-44s |%s| %4dms +%dms%s\n",
			label, bar, n.EndMS-n.StartMS, n.StartMS-lo, d)
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

// TraceFingerprint hashes a span set in canonical order. Two sim runs
// from the same seed must produce equal fingerprints — the
// determinism acceptance check for span assembly.
func TraceFingerprint(spans []Span) uint64 {
	sorted := append([]Span(nil), spans...)
	SortSpans(sorted)
	h := fnv.New64a()
	for _, sp := range sorted {
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%d|%d|%s\n",
			sp.TraceID, sp.SpanID, sp.ParentID, sp.Node, sp.Kind, sp.Op,
			sp.StartMS, sp.EndMS, sp.Detail)
	}
	return h.Sum64()
}
