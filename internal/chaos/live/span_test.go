package live

import (
	"strings"
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/chaos"
	"repro/internal/loadgen"
	"repro/internal/overlog"
	"repro/internal/rtfs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// shape renders a trace's span tree by kind: "op(send(recv(...)))".
func shape(spans []telemetry.Span) string {
	var render func(n *telemetry.SpanNode) string
	render = func(n *telemetry.SpanNode) string {
		if len(n.Children) == 0 {
			return n.Kind
		}
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = render(c)
		}
		return n.Kind + "(" + strings.Join(parts, " ") + ")"
	}
	var trees []string
	for _, r := range telemetry.AssembleTrace(spans) {
		trees = append(trees, render(r))
	}
	return strings.Join(trees, " ")
}

// opTrace returns the spans of the one op in ring.
func opTrace(t *testing.T, ring *telemetry.Tracer) []telemetry.Span {
	t.Helper()
	var ids []string
	for _, sp := range ring.Spans() {
		if sp.Kind == "op" {
			ids = append(ids, sp.TraceID)
		}
	}
	if len(ids) != 1 {
		t.Fatalf("ring holds %d ops, want 1", len(ids))
	}
	return ring.ByTrace(ids[0])
}

// TestSpanTreeParity: one traced client request gives the same span
// tree on the simulator and over TCP — the client's op, its send, the
// master's recv, rules and reply, the client's recv and rules — and
// the latency breakdown over either ring adds up to the op.
func TestSpanTreeParity(t *testing.T) {
	cfg := boomfs.DefaultConfig()

	simRing := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithTracer(simRing))
	if _, err := boomfs.NewMaster(c, "fsm:0", cfg); err != nil {
		t.Fatal(err)
	}
	simCl, err := boomfs.NewClient(c, "client:0", cfg, "fsm:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := simCl.Mkdir("/p"); err != nil {
		t.Fatal(err)
	}

	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	master := plainMaster(t, lc)
	cl, err := joinClient(lc, func(addr string) (*rtfs.Client, error) { return rtfs.NewClient(addr, master, 10*time.Second) })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := lc.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/p"); err != nil {
		t.Fatal(err)
	}

	const want = "op(send(recv(rules(send(recv(rules))))))"
	for driver, ring := range map[string]*telemetry.Tracer{"sim": simRing, "tcp": lc.Tracer()} {
		if got := shape(opTrace(t, ring)); got != want {
			t.Errorf("%s: span tree %s, want %s", driver, got, want)
		}
		bd := loadgen.BreakdownSpans(ring)
		if bd.Requests != 1 || bd.NetMeanMS+bd.QueueMeanMS+bd.ServeMeanMS != bd.TotalMeanMS {
			t.Errorf("%s: breakdown %+v does not add up to its one op", driver, bd)
		}
	}
}

// TestRestartedNodeRecordsRules: a crash-restarted node's new runtime
// records rules spans into the ring, on both drivers.
func TestRestartedNodeRecordsRules(t *testing.T) {
	telemetry.RegisterTraceColumn("rping", 1)
	const prog = `
		table seen(Id: string) keys(0);
		event rping(P: addr, Id: string);
		s1 seen(Id) :- rping(_, Id);
	`
	run := func(b chaos.Builder, ring *telemetry.Tracer) {
		rt, err := b.AddNode("n:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.InstallSource(prog); err != nil {
			t.Fatal(err)
		}
		addr := rt.LocalAddr()
		if err := b.SetSpec("n:0", func(fresh *overlog.Runtime) ([]sim.Service, error) {
			return nil, fresh.InstallSource(prog)
		}); err != nil {
			t.Fatal(err)
		}
		ping := func(id string) {
			b.Inject("n:0", overlog.NewTuple("rping", overlog.Addr(addr), overlog.Str(id)), 0)
			if err := b.Run(b.Now() + 10); err != nil {
				t.Fatal(err)
			}
		}
		ping("before")
		if err := b.Restart("n:0"); err != nil {
			t.Fatal(err)
		}
		ping("after")
		for _, id := range []string{"before", "after"} {
			if spans := ring.ByTrace(id); len(spans) != 1 || spans[0].Kind != "rules" || spans[0].Node != addr {
				t.Errorf("%T: trace %s holds %v, want one rules span on %s", b, id, spans, addr)
			}
		}
	}
	simRing := telemetry.NewTracer(0)
	run(sim.NewCluster(sim.WithTracer(simRing)), simRing)
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	run(lc, lc.Tracer())
}
