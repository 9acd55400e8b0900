package chaos

import (
	"strings"
	"testing"

	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
)

func mustClean(t *testing.T, sc Scenario, seed int64) Outcome {
	t.Helper()
	sched := sc.Schedule(seed)
	out := sc.Run(seed, sched)
	if out.Err != nil {
		t.Fatalf("%s seed %d: run error: %v", sc.Name, seed, out.Err)
	}
	if out.Violated() {
		t.Fatalf("%s seed %d violated:\n%s", sc.Name, seed,
			Report(out.Violations, out.Tracer, 40))
	}
	return out
}

func TestPaxosScenarioClean(t *testing.T) {
	mustClean(t, Paxos(), 1)
}

func TestReplicatedFSScenarioClean(t *testing.T) {
	mustClean(t, ReplicatedFS(), 1)
}

func TestMapReduceScenarioClean(t *testing.T) {
	mustClean(t, MapReduce(), 1)
}

func TestGossipScenarioClean(t *testing.T) {
	mustClean(t, Gossip(), 1)
}

// Held to a detection bound of two probe intervals, which no SWIM
// round can meet, the gossip scenario must report its ground-truth
// check and shrink to one fault that takes a node down.
func TestGossipScenarioShrinksToOneOutage(t *testing.T) {
	sc := gossip(1000)
	sched := sc.Schedule(1)
	out := sc.Run(1, sched)
	if out.Err != nil || !out.Violated() {
		t.Fatalf("a 1000 ms bound must be violated (err=%v)", out.Err)
	}
	shrunk := Shrink(sc, 1, sched)
	if len(shrunk) != 1 || (shrunk[0].Kind != Kill && shrunk[0].Kind != CrashRestart) {
		t.Fatalf("shrunk to %d actions, want one kill or crash-restart:\n%s", len(shrunk), shrunk)
	}
}

// The weakened configuration (replication factor 1, permanent datanode
// kills) must trip the in-Overlog durability monitor — not just the
// harness read-back check — and the shrinker must cut the 5-action
// schedule (two kills plus three decoy faults) down to at most 3
// actions that still reproduce the violation.
func TestWeakDurabilityViolatesAndShrinks(t *testing.T) {
	sc := WeakDurability()
	seed := int64(2)
	sched := sc.Schedule(seed)
	out := sc.Run(seed, sched)
	if out.Err != nil {
		t.Fatalf("weak run error: %v", out.Err)
	}
	if !out.Violated() {
		t.Fatalf("repl=1 with permanent datanode kills should violate durability")
	}
	monitorFired := false
	for _, v := range out.Violations {
		if v.Inv == "durability" {
			monitorFired = true
			break
		}
	}
	if !monitorFired {
		t.Fatalf("expected the Overlog durability monitor (iv4) to fire, got:\n%s",
			Report(out.Violations, out.Tracer, 0))
	}

	shrunk := Shrink(sc, seed, sched)
	if len(shrunk) == 0 || len(shrunk) > 3 {
		t.Fatalf("shrunk schedule has %d actions, want 1..3:\n%s", len(shrunk), shrunk)
	}
	replay := sc.Run(seed, shrunk)
	if replay.Err != nil || !replay.Violated() {
		t.Fatalf("shrunk schedule must still violate (err=%v violated=%v)",
			replay.Err, replay.Violated())
	}
	// The minimal counterexample carries its own causal explanation: the
	// derivation DAG of the first inv_violation, reaching the monitor
	// rule that fired.
	if replay.Provenance == "" {
		t.Fatal("shrunk replay has no violation provenance")
	}
	if !strings.Contains(replay.Provenance, "inv_violation(") ||
		!strings.Contains(replay.Provenance, "<- rule iv") {
		t.Fatalf("provenance does not reach a monitor rule:\n%s", replay.Provenance)
	}
	for _, a := range shrunk {
		if a.Kind != Kill {
			t.Errorf("shrunk schedule kept a decoy action: %s", a)
		}
	}
	t.Logf("shrunk %d-action schedule to %d:\n%s", len(sched), len(shrunk), shrunk)
}

// The log-agreement monitor is pure metaprogramming over the Paxos
// relations: corrupting one replica's decided log must surface as an
// inv_violation without any harness-side comparison, and Collect must
// materialize the rows into sys::invariant.
func TestLogAgreementMonitorFires(t *testing.T) {
	c := sim.NewCluster(sim.WithClusterSeed(7))
	members := []string{"px:0", "px:1", "px:2"}
	pcfg := paxos.DefaultConfig()
	mcfg := MonitorConfig{TickMS: 500, GraceMS: 12000}
	for _, m := range members {
		rt, err := c.AddNode(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := paxos.Install(rt, m, members, pcfg); err != nil {
			t.Fatal(err)
		}
		if err := InstallPaxosMonitor(rt, mcfg); err != nil {
			t.Fatal(err)
		}
	}
	cmd := overlog.List(overlog.Str("c1"), overlog.Str("set x"))
	for _, m := range members {
		c.Inject(m, overlog.NewTuple("paxos_request",
			overlog.Addr(m), overlog.Str("c1"), cmd), 0)
	}
	decidedAll := func() bool {
		for _, m := range members {
			if len(paxos.Decided(c.Node(m))) == 0 {
				return false
			}
		}
		return true
	}
	if _, err := c.RunUntil(decidedAll, c.Now()+30_000); err != nil {
		t.Fatal(err)
	}
	if !decidedAll() {
		t.Fatal("command never decided everywhere")
	}

	// Tamper with px:2's log: overwrite its decided command for the
	// lowest slot. The next monitor tick broadcasts decided slots and
	// both sides of the disagreement should report.
	slot := int64(-1)
	for s := range paxos.Decided(c.Node("px:2")) {
		if slot < 0 || s < slot {
			slot = s
		}
	}
	c.Inject("px:2", overlog.NewTuple("decided", overlog.Int(slot),
		overlog.List(overlog.Str("c1"), overlog.Str("tampered"))), 0)
	if err := c.Run(c.Now() + 4*mcfg.TickMS); err != nil {
		t.Fatal(err)
	}

	vs := Collect(c, c.Nodes())
	found := false
	for _, v := range vs {
		if v.Inv == "log-agreement" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("expected a log-agreement violation after tampering, got %v", vs)
	}
	// Collect mirrors the rows into each node's sys::invariant catalog
	// relation, like analysis.SelfLint does for sys::lint.
	materialized := 0
	for _, m := range members {
		if tbl := c.Node(m).Table("sys::invariant"); tbl != nil {
			materialized += tbl.Len()
		}
	}
	if materialized == 0 {
		t.Fatal("violations not materialized into sys::invariant")
	}
}

// Sweep bookkeeping: clean seeds produce no Shrunk schedule and carry
// their outcome through.
func TestSweepCleanSeeds(t *testing.T) {
	results := Sweep(Paxos(), Seeds(1, 2), true)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, r := range results {
		if r.Outcome.Err != nil {
			t.Fatalf("seed %d: %v", r.Seed, r.Outcome.Err)
		}
		if r.Outcome.Violated() {
			t.Fatalf("seed %d violated:\n%s", r.Seed,
				Report(r.Outcome.Violations, r.Outcome.Tracer, 40))
		}
		if r.Shrunk != nil {
			t.Fatalf("seed %d: clean run should not shrink", r.Seed)
		}
	}
}

// TestRepairFloorDetail pins the repl-floor violation text, whose
// floor is a param spliced into a string: "under floor 2" is the byte
// sequence the monitor wrote when the floor was substituted into the
// literal.
func TestRepairFloorDetail(t *testing.T) {
	rt := overlog.NewRuntime("m:0")
	// The master tables the monitor reads, and one chunk below the
	// floor of 2 with two live datanodes to repair it.
	if err := rt.InstallSource(`
		table fchunk(ChunkId: int, FileId: int, Idx: int) keys(0) durable;
		table chunk_repl(ChunkId: int, N: int, Nodes: list) keys(0);
		table live_dn(K: string, Nodes: list) keys(0);
		fchunk(7, 1, 0);
		chunk_repl(7, 1, ["d:0"]);
		live_dn("live", ["d:0", "d:1"]);`); err != nil {
		t.Fatal(err)
	}
	cfg := MonitorConfig{TickMS: 10, GraceMS: 5, Repl: 2}
	if err := InstallFSMonitor(rt, cfg); err != nil {
		t.Fatal(err)
	}
	for now := int64(10); now <= 40; now += 10 {
		if _, err := rt.Step(now, nil); err != nil {
			t.Fatal(err)
		}
	}
	vs := ScanViolations(rt)
	if len(vs) != 1 || vs[0].Detail != "chunk 7 under floor 2 (since 10ms)" {
		t.Fatalf("violations: %v", vs)
	}
}

// TestOverlappingLossBursts replays two loss bursts that overlap: the
// later one's rate holds while both run, and once the last ends the
// rate from before the first comes back, not the first one's.
func TestOverlappingLossBursts(t *testing.T) {
	sched, err := ReadSchedule(strings.NewReader(probeBursts))
	if err != nil {
		t.Fatal(err)
	}
	c := sim.NewCluster()
	if err := sched.Apply(c); err != nil {
		t.Fatal(err)
	}
	peek := func() float64 { r := c.SetDropRate(0); c.SetDropRate(r); return r }
	var during float64
	c.At(3500, func() error { during = peek(); return nil })
	if err := c.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if during != 0.2 {
		t.Fatalf("rate while the second burst runs: %v, want 0.2", during)
	}
	if after := peek(); after != 0 {
		t.Fatalf("rate after both bursts: %v, want 0", after)
	}
}

// TestApplyRejectsUnknownNodes: a schedule naming a node the cluster
// lacks fails the run with an error naming the action, the way an
// unknown kind fails the load, instead of replaying as a no-op.
func TestApplyRejectsUnknownNodes(t *testing.T) {
	sched, err := ReadSchedule(strings.NewReader(probeNames))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{`kill px:9: no node "px:9"`, `partition px:0|pz:1 (heal after 500ms): no node "pz:1"`} {
		out := Paxos().Run(1, sched[i:])
		if out.Err == nil || !strings.Contains(out.Err.Error(), want) {
			t.Fatalf("%v: got %v, want an error containing %q", sched[i:], out.Err, want)
		}
	}
}

// After the paxos scenario's seed 1, every replica holds
// promise_acc_store rows only at its own cur_ballot: cp6 retires the
// accepted values promised to the ballots it campaigned at before.
func TestPaxosRetiresSupersededPromises(t *testing.T) {
	c := sim.NewCluster(sim.WithClusterSeed(1))
	if err := Paxos().Body(Env{Builder: c}, 1, Paxos().Schedule(1)); err != nil {
		t.Fatal(err)
	}
	if vs := Collect(c, c.Nodes()); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
	rows := 0
	for _, name := range []string{"px:0", "px:1", "px:2"} {
		c.RunOn(name, func(rt *overlog.Runtime) {
			cur := rt.Table("cur_ballot").Tuples()[0].Vals[1].AsInt()
			for _, tp := range rt.Table("promise_acc_store").Tuples() {
				rows++
				if b := tp.Vals[0].AsInt(); b != cur {
					t.Errorf("%s: %s at ballot %d, cur_ballot %d", name, tp, b, cur)
				}
			}
		})
	}
	t.Logf("%d promise_acc_store rows at the current ballots", rows)
}
