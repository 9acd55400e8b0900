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

// TestSimSpanChain checks the shape the sim stamps: the trace's spans
// alternate rules and net hops, cross every ring node, and parent into
// one tree.
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
	var rules, nets int
	for _, sp := range spans {
		switch sp.Kind {
		case "rules":
			rules++
		case "net":
			nets++
			if sp.EndMS < sp.StartMS {
				t.Fatalf("net span ends before it starts: %v", sp)
			}
		default:
			t.Fatalf("unexpected span kind %q from the sim", sp.Kind)
		}
	}
	// Hops 0..3 fire rules on a, b, c, a; hops crossing a link are
	// a->b, b->c, c->a.
	if rules != 4 || nets != 3 {
		t.Fatalf("got %d rules + %d net spans, want 4 + 3:\n%v", rules, nets, spans)
	}
	if nodes := telemetry.TraceNodes(spans); len(nodes) != 3 {
		t.Fatalf("trace crossed %v, want all 3 ring nodes", nodes)
	}
	roots := telemetry.AssembleTrace(spans)
	if len(roots) != 1 {
		t.Fatalf("trace assembled into %d trees, want 1", len(roots))
	}
}
