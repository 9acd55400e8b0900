package telemetry_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/overlog"
	"repro/internal/telemetry"
)

func TestTracerRingWrap(t *testing.T) {
	tr := telemetry.NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(telemetry.Span{TraceID: "t", SpanID: fmt.Sprintf("n#%d", i),
			Node: "n", Kind: "op", StartMS: int64(i)})
	}
	if got := tr.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("n#%d", i+2); sp.SpanID != want {
			t.Fatalf("span[%d] = %s, want %s (oldest-first after wrap)", i, sp.SpanID, want)
		}
	}
}

func TestTracerNextIDPerNode(t *testing.T) {
	tr := telemetry.NewTracer(0)
	if a, b := tr.NextID("a"), tr.NextID("b"); a != "a#1" || b != "b#1" {
		t.Fatalf("NextID = %s, %s; want a#1, b#1 (independent per-node counters)", a, b)
	}
	if a2 := tr.NextID("a"); a2 != "a#2" {
		t.Fatalf("NextID(a) second call = %s, want a#2", a2)
	}
}

func TestTracerContextEviction(t *testing.T) {
	tr := telemetry.NewTracer(8)
	// Push well past maxContext distinct (node, trace) keys: the oldest
	// must be evicted, the newest retained.
	for i := 0; i < 5000; i++ {
		tr.SetActive("n", fmt.Sprintf("trace-%d", i), fmt.Sprintf("n#%d", i))
		tr.SetHop("n", fmt.Sprintf("trace-%d", i), "m", fmt.Sprintf("n#%d", i))
	}
	if got := tr.Active("n", "trace-0"); got != "" {
		t.Fatalf("Active(trace-0) = %q after eviction, want empty", got)
	}
	if got := tr.Active("n", "trace-4999"); got != "n#4999" {
		t.Fatalf("Active(trace-4999) = %q, want n#4999", got)
	}
	if got := tr.TakeHop("n", "trace-4999", "m"); got != "n#4999" {
		t.Fatalf("TakeHop = %q, want n#4999", got)
	}
	if got := tr.TakeHop("n", "trace-4999", "m"); got != "" {
		t.Fatalf("TakeHop second call = %q, want empty (consumed)", got)
	}
}

// TestTracerReparkedHopSurvivesEviction: a gateway retry reuses its
// request ID, so one (from, trace, to) hop is parked, taken and parked
// again. Evicting the first parking must not take the live second one
// with it — here only two hops are live when eviction runs.
func TestTracerReparkedHopSurvivesEviction(t *testing.T) {
	tr := telemetry.NewTracer(8)
	tr.SetHop("m", "r1", "c", "m#1")
	tr.TakeHop("m", "r1", "c")
	for i := 0; i < 4094; i++ {
		tr.SetHop("m", fmt.Sprintf("other-%d", i), "c", "m#x")
		tr.TakeHop("m", fmt.Sprintf("other-%d", i), "c")
	}
	tr.SetHop("m", "r1", "c", "m#2")
	tr.SetHop("m", "last", "c", "m#3")
	if got := tr.TakeHop("m", "r1", "c"); got != "m#2" {
		t.Fatalf("TakeHop(m, r1, c) = %q, want m#2 (a live hop was evicted)", got)
	}
	if got := tr.TakeHop("m", "last", "c"); got != "m#3" {
		t.Fatalf("TakeHop(m, last, c) = %q, want m#3", got)
	}
}

// sampleTrace is a 3-node request: op on the client, a rule fire and a
// wire hop per downstream node.
func sampleTrace() []telemetry.Span {
	return []telemetry.Span{
		{TraceID: "r1", SpanID: "c#1", Node: "c", Kind: "op", Op: "create", StartMS: 10, EndMS: 40},
		{TraceID: "r1", SpanID: "c#2", ParentID: "c#1", Node: "c", Kind: "net", Op: "req", StartMS: 10, EndMS: 14},
		{TraceID: "r1", SpanID: "m#1", ParentID: "c#2", Node: "m", Kind: "rules", Op: "req", StartMS: 16, EndMS: 16},
		{TraceID: "r1", SpanID: "m#2", ParentID: "m#1", Node: "m", Kind: "net", Op: "rep", StartMS: 16, EndMS: 20},
		{TraceID: "r1", SpanID: "d#1", ParentID: "m#2", Node: "d", Kind: "rules", Op: "rep", StartMS: 22, EndMS: 22},
	}
}

func TestAssembleTraceAndWaterfall(t *testing.T) {
	spans := sampleTrace()
	// Feed in scrambled order; assembly must not care.
	scrambled := []telemetry.Span{spans[3], spans[0], spans[4], spans[2], spans[1]}
	roots := telemetry.AssembleTrace(scrambled)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	if roots[0].SpanID != "c#1" {
		t.Fatalf("root = %s, want c#1", roots[0].SpanID)
	}
	depth := 0
	for n := roots[0]; len(n.Children) > 0; n = n.Children[0] {
		depth++
	}
	if depth != 4 {
		t.Fatalf("chain depth = %d, want 4", depth)
	}
	if got := telemetry.TraceNodes(spans); len(got) != 3 {
		t.Fatalf("TraceNodes = %v, want 3 nodes", got)
	}
	w := telemetry.Waterfall(roots)
	for _, want := range []string{"c op create", "m rules req", "d rules rep", "30ms"} {
		if !strings.Contains(w, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, w)
		}
	}
}

func TestAssembleTraceOrphanBecomesRoot(t *testing.T) {
	spans := sampleTrace()[2:] // parent c#2 evicted
	roots := telemetry.AssembleTrace(spans)
	if len(roots) != 1 || roots[0].SpanID != "m#1" {
		t.Fatalf("orphan should root the remaining tree, got %d roots", len(roots))
	}
}

func TestTraceFingerprintCanonical(t *testing.T) {
	spans := sampleTrace()
	scrambled := []telemetry.Span{spans[4], spans[1], spans[0], spans[3], spans[2]}
	if a, b := telemetry.TraceFingerprint(spans), telemetry.TraceFingerprint(scrambled); a != b {
		t.Fatalf("fingerprint depends on input order: %x vs %x", a, b)
	}
	changed := append([]telemetry.Span(nil), spans...)
	changed[2].EndMS++
	if a, b := telemetry.TraceFingerprint(spans), telemetry.TraceFingerprint(changed); a == b {
		t.Fatal("fingerprint blind to span content change")
	}
}

func TestTracerTraces(t *testing.T) {
	tr := telemetry.NewTracer(0)
	for _, sp := range sampleTrace() {
		tr.Record(sp)
	}
	tr.Record(telemetry.Span{TraceID: "r0", SpanID: "c#9", Node: "c", Kind: "op", StartMS: 5, EndMS: 7})
	traces := tr.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if traces[0].TraceID != "r0" || traces[1].TraceID != "r1" {
		t.Fatalf("traces not ordered by start: %v", traces)
	}
	r1 := traces[1]
	if r1.Spans != 5 || len(r1.Nodes) != 3 || r1.StartMS != 10 || r1.EndMS != 40 {
		t.Fatalf("r1 summary wrong: %+v", r1)
	}
	if got := tr.ByTrace("r1"); len(got) != 5 {
		t.Fatalf("ByTrace(r1) = %d spans, want 5", len(got))
	}
}

func TestMetricSweepCollect(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("fs_ops_total", "ops")
	c.Add(7)
	reg.Gauge("fs_files", "files").Set(3)
	h := reg.Histogram("fs_latency_ms", "latency", []float64{1, 10, 100})
	for _, v := range []float64{2, 2, 2, 50} {
		h.Observe(v)
	}
	reg.Counter("other_total", "not swept").Add(99)

	sweep := telemetry.MetricSweep{Reg: reg, Node: "m0", Prefixes: []string{"fs_"}}
	tuples := sweep.Collect(1000)
	got := map[string]int64{}
	for _, tp := range tuples {
		if tp.Table != "sys::metric" {
			t.Fatalf("tuple table = %s, want sys::metric", tp.Table)
		}
		if node := tp.Vals[0].AsString(); node != "m0" {
			t.Fatalf("node col = %s, want m0", node)
		}
		if w := tp.Vals[2].AsInt(); w != 1000 {
			t.Fatalf("window col = %d, want 1000", w)
		}
		got[tp.Vals[1].AsString()] = tp.Vals[3].AsInt()
	}
	if got["fs_ops_total"] != 7 || got["fs_ops_total_win"] != 7 {
		t.Fatalf("counter sweep wrong: %v", got)
	}
	if got["fs_files"] != 3 {
		t.Fatalf("gauge sweep wrong: %v", got)
	}
	if got["fs_latency_ms_count"] != 4 {
		t.Fatalf("histogram count wrong: %v", got)
	}
	if _, ok := got["fs_latency_ms_p99"]; !ok {
		t.Fatalf("histogram p99 missing: %v", got)
	}
	if _, ok := got["other_total"]; ok {
		t.Fatal("prefix filter leaked other_total")
	}

	// Second window: the counter did not move, so the _win delta is 0.
	c.Add(2)
	got2 := map[string]int64{}
	for _, tp := range sweep.Collect(2000) {
		got2[tp.Vals[1].AsString()] = tp.Vals[3].AsInt()
	}
	if got2["fs_ops_total"] != 9 || got2["fs_ops_total_win"] != 2 {
		t.Fatalf("second window sweep wrong: %v", got2)
	}
}

// TestAttachTracerChainsSpans drives a runtime through AttachTracer —
// the wall-clock (TCP) drivers' step hook — and checks that consuming
// a traced tuple yields a rules span parented to the active span, and
// that a remote emission parks a hop for the transport.
func TestAttachTracerChainsSpans(t *testing.T) {
	telemetry.RegisterTraceColumn("treq", 1)
	rt := overlog.NewRuntime("n1")
	if err := rt.InstallSource(`
		event treq(P: addr, Id: string);
		r1 treq(@P, Id) :- treq(P, Id);
	`); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(0)
	telemetry.AttachTracer(tr, "n1", rt, nil)
	tr.SetActive("n1", "q7", "client#1")

	if _, err := rt.Step(100, []overlog.Tuple{
		overlog.NewTuple("treq", overlog.Addr("n2"), overlog.Str("q7")),
	}); err != nil {
		t.Fatal(err)
	}

	spans := tr.ByTrace("q7")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want rules+send: %v", len(spans), spans)
	}
	var rules, send *telemetry.Span
	for i := range spans {
		switch spans[i].Kind {
		case "rules":
			rules = &spans[i]
		case "send":
			send = &spans[i]
		}
	}
	if rules == nil || send == nil {
		t.Fatalf("missing span kinds: %v", spans)
	}
	if rules.ParentID != "client#1" {
		t.Fatalf("rules span parent = %q, want client#1", rules.ParentID)
	}
	if send.ParentID != rules.SpanID {
		t.Fatalf("send span parent = %q, want %q", send.ParentID, rules.SpanID)
	}
	if hop := tr.TakeHop("n1", "q7", "n2"); hop != send.SpanID {
		t.Fatalf("parked hop = %q, want %q", hop, send.SpanID)
	}
	if got := tr.Active("n1", "q7"); got != rules.SpanID {
		t.Fatalf("active after step = %q, want rules span", got)
	}
}

// TestAddStepHookComposes verifies multiple hooks all fire and that
// SetStepHook(nil) clears them.
func TestAddStepHookComposes(t *testing.T) {
	rt := overlog.NewRuntime("n")
	if err := rt.InstallSource(`
		table seen(K: int) keys(0);
		event e(K: int);
		r1 seen(K) :- e(K);
	`); err != nil {
		t.Fatal(err)
	}
	var a, b int
	rt.AddStepHook(func(overlog.StepStats) { a++ })
	rt.AddStepHook(func(overlog.StepStats) { b++ })
	if _, err := rt.Step(1, []overlog.Tuple{overlog.NewTuple("e", overlog.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatalf("hooks fired a=%d b=%d, want 1 each", a, b)
	}
	rt.SetStepHook(nil)
	if _, err := rt.Step(2, []overlog.Tuple{overlog.NewTuple("e", overlog.Int(2))}); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatalf("hooks fired after clear a=%d b=%d, want 1 each", a, b)
	}
}
