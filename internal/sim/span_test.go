package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func init() {
	// Column 1 of relay carries the request ID — the trace.
	telemetry.RegisterTraceColumn("relay", 1)
}

// runRelay builds a 3-node ring that forwards a traced tuple around
// twice, under a tracer, and returns the fingerprint over every span
// recorded — virtual timestamps, per-node span IDs, parent links, all
// of it.
func runRelay(t *testing.T, seed int64) uint64 {
	t.Helper()
	tr := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithClusterSeed(seed), sim.WithTracer(tr))
	ring := []string{"a", "b", "c"}
	for i, addr := range ring {
		next := ring[(i+1)%len(ring)]
		rt := c.MustAddNode(addr)
		if err := rt.InstallSource(fmt.Sprintf(`
			table seen(Id: string, H: int) keys(0, 1);
			event relay(P: addr, Id: string, H: int);
			s1 seen(Id, H) :- relay(_, Id, H);
			f1 relay(@N, Id, H + 1) :- relay(_, Id, H), H < 6, N := %q;
		`, next)); err != nil {
			t.Fatal(err)
		}
	}
	// Two interleaved traces so ring append order interleaves too.
	c.Inject("a", overlog.NewTuple("relay",
		overlog.Addr("a"), overlog.Str("req-1"), overlog.Int(0)), 1)
	c.Inject("b", overlog.NewTuple("relay",
		overlog.Addr("b"), overlog.Str("req-2"), overlog.Int(0)), 1)
	if err := c.Run(c.Now() + 2000); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("traced relay recorded no spans")
	}
	return telemetry.TraceFingerprint(spans)
}

// TestSimSpanDeterminism is the acceptance check for sim span
// assembly: the same seed must fingerprint bit-identically across
// runs.
func TestSimSpanDeterminism(t *testing.T) {
	base := runRelay(t, 42)
	if again := runRelay(t, 42); again != base {
		t.Fatalf("replay diverged: %x vs %x", base, again)
	}
}

// TestSimSpanChain checks the shape the sim records: the trace's spans
// run rules, send, recv, rules, ... across every ring node, and parent
// into one tree.
func TestSimSpanChain(t *testing.T) {
	tr := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithClusterSeed(7), sim.WithTracer(tr))
	ring := []string{"a", "b", "c"}
	for i, addr := range ring {
		next := ring[(i+1)%len(ring)]
		rt := c.MustAddNode(addr)
		if err := rt.InstallSource(fmt.Sprintf(`
			table seen(Id: string, H: int) keys(0, 1);
			event relay(P: addr, Id: string, H: int);
			s1 seen(Id, H) :- relay(_, Id, H);
			f1 relay(@N, Id, H + 1) :- relay(_, Id, H), H < 3, N := %q;
		`, next)); err != nil {
			t.Fatal(err)
		}
	}
	c.Inject("a", overlog.NewTuple("relay",
		overlog.Addr("a"), overlog.Str("req-9"), overlog.Int(0)), 1)
	if err := c.Run(c.Now() + 2000); err != nil {
		t.Fatal(err)
	}
	spans := tr.ByTrace("req-9")
	byID := map[string]telemetry.Span{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Kind]++
		parent := byID[sp.ParentID]
		switch sp.Kind {
		case "rules", "send":
		case "recv":
			if parent.Kind != "send" || sp.StartMS <= parent.StartMS {
				t.Fatalf("recv %v does not follow its send %v", sp, parent)
			}
		default:
			t.Fatalf("unexpected span kind %q from the sim", sp.Kind)
		}
	}
	// Hops 0..3 fire rules on a, b, c, a; hops crossing a link are
	// a->b, b->c, c->a, each a send and a recv.
	if want := map[string]int{"rules": 4, "send": 3, "recv": 3}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("spans by kind = %v, want %v:\n%v", kinds, want, spans)
	}
	if nodes := telemetry.TraceNodes(spans); len(nodes) != 3 {
		t.Fatalf("trace crossed %v, want all 3 ring nodes", nodes)
	}
	roots := telemetry.AssembleTrace(spans)
	if len(roots) != 1 {
		t.Fatalf("trace assembled into %d trees, want 1", len(roots))
	}
}

// TestSimOneEntryPerEnvelope pins the ring's accounting: a traced
// cross-node envelope is a send and a recv, an untraced one a single
// send with neither trace nor span ID, beside the rules span of each
// step that consumed a traced tuple.
func TestSimOneEntryPerEnvelope(t *testing.T) {
	tr := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithClusterSeed(7), sim.WithTracer(tr))
	ring := []string{"a", "b", "c"}
	for i, addr := range ring {
		next := ring[(i+1)%len(ring)]
		rt := c.MustAddNode(addr)
		if err := rt.InstallSource(fmt.Sprintf(`
			event relay(P: addr, Id: string, H: int);
			event hop(P: addr, H: int);
			f1 relay(@N, Id, H + 1) :- relay(_, Id, H), H < 3, N := %q;
			f2 hop(@N, H + 1) :- hop(_, H), H < 3, N := %q;
		`, next, next)); err != nil {
			t.Fatal(err)
		}
	}
	c.Inject("a", overlog.NewTuple("relay", overlog.Addr("a"), overlog.Str("req-5"), overlog.Int(0)), 1)
	c.Inject("a", overlog.NewTuple("hop", overlog.Addr("a"), overlog.Int(0)), 1)
	if err := c.Run(c.Now() + 2000); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, sp := range tr.Spans() {
		kinds[sp.Kind]++
		if sp.Kind == "send" && sp.Op == "hop" && (sp.TraceID != "" || sp.SpanID != "") {
			t.Fatalf("untraced send carries trace context: %v", sp)
		}
	}
	want := map[string]int{"recv": 3, "rules": 4, "send": 6}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("ring entries by kind = %v, want %v", kinds, want)
	}
}
