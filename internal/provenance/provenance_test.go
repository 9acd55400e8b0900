package provenance_test

import (
	"strings"
	"testing"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func step(t *testing.T, rt *overlog.Runtime, now int64, ext ...overlog.Tuple) {
	t.Helper()
	if _, err := rt.Step(now, ext); err != nil {
		t.Fatal(err)
	}
}

func TestWhyLocalChain(t *testing.T) {
	rt := overlog.NewRuntime("n1")
	src := `
		table link(A: int, B: int) keys(0,1);
		table path(A: int, B: int) keys(0,1);
		p1 path(A, B) :- link(A, B);
		p2 path(A, C) :- link(A, B), path(B, C);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("*", 64)
	step(t, rt, 1,
		overlog.NewTuple("link", overlog.Int(1), overlog.Int(2)),
		overlog.NewTuple("link", overlog.Int(2), overlog.Int(3)))

	root := provenance.Why(rt, "path", overlog.NewTuple("path", overlog.Int(1), overlog.Int(3)), provenance.Options{})
	if root.External || root.Rule != "p2" {
		t.Fatalf("root = %+v, want rule p2", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	// The chase must bottom out at the external link facts.
	var externals int
	var walk func(n *provenance.Node)
	walk = func(n *provenance.Node) {
		if n.External && strings.HasPrefix(n.Tuple, "link(") {
			externals++
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	if externals != 2 {
		t.Fatalf("expected 2 external link leaves, got %d\n%s", externals, provenance.Format(root))
	}
	out := provenance.Format(root)
	if !strings.Contains(out, "path(1, 3)") || !strings.Contains(out, "rule p2") {
		t.Fatalf("Format output missing root derivation:\n%s", out)
	}
}

func TestWhyCycleSafe(t *testing.T) {
	rt := overlog.NewRuntime("n1")
	src := `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		r1 a(X) :- b(X);
		r2 b(X) :- a(X);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("*", 64)
	step(t, rt, 1, overlog.NewTuple("a", overlog.Int(1)))

	// a(1) <- r1 <- b(1) <- r2 <- a(1): the chase must cut, not loop.
	root := provenance.Why(rt, "a", overlog.NewTuple("a", overlog.Int(1)), provenance.Options{})
	var truncated bool
	var count int
	var walk func(n *provenance.Node)
	walk = func(n *provenance.Node) {
		count++
		if count > 1000 {
			t.Fatal("runaway DAG")
		}
		truncated = truncated || n.Truncated
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	if !truncated {
		t.Fatalf("cyclic derivation produced no truncation:\n%s", provenance.Format(root))
	}
}

func TestWhyPatternAndFP(t *testing.T) {
	rt := overlog.NewRuntime("n1")
	src := `
		table f(K: int, V: string) keys(0);
		table g(K: int) keys(0);
		r1 g(K) :- f(K, _);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("g", 16)
	step(t, rt, 1,
		overlog.NewTuple("f", overlog.Int(1), overlog.Str("x")),
		overlog.NewTuple("f", overlog.Int(2), overlog.Str("y")))
	roots, err := provenance.WhyPattern(rt, "g(_)", provenance.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("g(_) matched %d tuples, want 2", len(roots))
	}
	for _, r := range roots {
		if r.Rule != "r1" {
			t.Fatalf("pattern root %+v not derived by r1", r)
		}
	}
	fp := overlog.NewTuple("g", overlog.Int(1)).Fingerprint()
	byFP := provenance.WhyFP(rt, "g", fp, provenance.Options{})
	if byFP.Rule != "r1" || byFP.Tuple != "g(1)" {
		t.Fatalf("WhyFP = %+v, want r1 / g(1)", byFP)
	}
	if _, err := provenance.WhyPattern(rt, "g(1, 2, 3)", provenance.Options{}); err == nil {
		t.Fatal("arity mismatch did not error")
	}
}

// TestWhyCrossNodeSim: a tuple delivered over the simulated network
// explains back to the deriving rule on the sender.
func TestWhyCrossNodeSim(t *testing.T) {
	c := sim.NewCluster(sim.WithProvenance(64))
	rtA := c.MustAddNode("a")
	rtB := c.MustAddNode("b")
	srcA := `
		table out(P: addr, K: int) keys(0,1);
		event kick(K: int);
		s1 out(@P, K) :- kick(K), P := "b";
	`
	if err := rtA.InstallSource(srcA); err != nil {
		t.Fatal(err)
	}
	if err := rtB.InstallSource(`table out(P: addr, K: int) keys(0,1);`); err != nil {
		t.Fatal(err)
	}
	c.Inject("a", overlog.NewTuple("kick", overlog.Int(7)), 1)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	tuples := rtB.Table("out").Tuples()
	if len(tuples) != 1 {
		t.Fatalf("b holds %d out tuples, want 1", len(tuples))
	}
	root := provenance.Why(rtB, "out", tuples[0], provenance.Options{Peers: c.Runtimes()})
	if root.External {
		t.Fatalf("cross-node chase found nothing:\n%s", provenance.Format(root))
	}
	if root.Rule != "s1" || root.Origin != "a" || !root.Remote || root.To != "b" {
		t.Fatalf("root = %+v, want rule s1 originating on a, sent to b", root)
	}
	// Without peers the same tuple is unexplainable.
	alone := provenance.Why(rtB, "out", tuples[0], provenance.Options{})
	if !alone.External {
		t.Fatalf("peer-less chase should report external, got %+v", alone)
	}
}

// TestWhyReplicatedMasterFS is the acceptance case: a metadata tuple on
// a backup master replica explains back through the Paxos log to rule
// firings on other nodes — the derivation DAG crosses the replica
// boundary instead of dead-ending at "it was in my tables".
func TestWhyReplicatedMasterFS(t *testing.T) {
	tracer := telemetry.NewTracer(0)
	c := sim.NewCluster(
		sim.WithClusterSeed(7),
		sim.WithTelemetry(telemetry.NewRegistry()),
		sim.WithTracer(tracer),
		sim.WithProvenance(512))

	cfg := boomfs.DefaultConfig()
	cfg.ChunkSize = 16
	rm, err := boomfs.NewReplicatedMaster(c, "fsm", 3, cfg, paxos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := boomfs.NewReplicatedClient(c, "client:0", cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(c.Now() + 1500); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/data/f0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(c.Now() + 2000); err != nil {
		t.Fatal(err)
	}

	leader := rm.LeaderIndex()
	if leader < 0 {
		t.Fatal("no leader elected")
	}
	backup := (leader + 1) % 3
	backupRT := rm.Master(backup).Runtime()

	roots, err := provenance.WhyPattern(backupRT, `file(_, _, "data", _)`, provenance.Options{
		Peers:       c.Runtimes(),
		MaxDepth:    24,
		MaxNodes:    512,
		TraceID:     telemetry.TraceIDOf,
		TraceEvents: tracer.RenderTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("backup holds %d file rows for /data, want 1", len(roots))
	}
	root := roots[0]
	if root.External {
		t.Fatalf("backup file tuple has no derivation:\n%s", provenance.Format(root))
	}

	// The DAG must reach a rule firing on a different node than the
	// backup being asked (the Paxos messages that carried the decision).
	backupAddr := rm.Replicas[backup]
	var crossNode bool
	var walk func(n *provenance.Node)
	seen := map[*provenance.Node]bool{}
	walk = func(n *provenance.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Rule != "" && n.Origin != "" && n.Origin != backupAddr {
			crossNode = true
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	if !crossNode {
		t.Fatalf("derivation DAG never left the backup replica:\n%s", provenance.Format(root))
	}
}
