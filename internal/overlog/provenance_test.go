package overlog

import (
	"testing"
)

const provProgram = `
	table link(A: int, B: int) keys(0,1);
	table path(A: int, B: int) keys(0,1);
	p1 path(A, B) :- link(A, B);
	p2 path(A, C) :- link(A, B), path(B, C);
`

func provStep(t *testing.T, rt *Runtime, now int64, ext ...Tuple) {
	t.Helper()
	if _, err := rt.Step(now, ext); err != nil {
		t.Fatal(err)
	}
}

func TestProvenanceCaptureBasics(t *testing.T) {
	rt := NewRuntime("n1")
	if err := rt.InstallSource(provProgram); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("path", 64)
	if !rt.ProvenanceEnabled() {
		t.Fatal("capture not enabled after EnableProvenance")
	}
	provStep(t, rt, 1,
		NewTuple("link", Int(1), Int(2)),
		NewTuple("link", Int(2), Int(3)))

	ds := rt.Derivations("path")
	if len(ds) == 0 {
		t.Fatal("no derivations captured for path")
	}
	// path(1,3) comes from p2 with body link(1,2), path(2,3).
	want := NewTuple("path", Int(1), Int(3))
	got := rt.DerivationsOf("path", want.Fingerprint())
	if len(got) == 0 {
		t.Fatalf("no derivation for %s; ring: %v", want, ds)
	}
	d := got[len(got)-1]
	if d.Rule != "p2" {
		t.Fatalf("path(1,3) derived by %q, want p2", d.Rule)
	}
	if len(d.Body) != 2 {
		t.Fatalf("derivation body has %d refs, want 2: %v", len(d.Body), d)
	}
	// Body refs come in evaluation order, which for delta-variant runs
	// is frontier-first — check as a set.
	wantRefs := map[DerivRef]bool{
		{Table: "link", FP: NewTuple("link", Int(1), Int(2)).Fingerprint()}: true,
		{Table: "path", FP: NewTuple("path", Int(2), Int(3)).Fingerprint()}: true,
	}
	for _, ref := range d.Body {
		if !wantRefs[ref] {
			t.Fatalf("unexpected body ref %v in %v", ref, d)
		}
		delete(wantRefs, ref)
	}
	if len(wantRefs) != 0 {
		t.Fatalf("missing body refs %v in %v", wantRefs, d)
	}
	// link is not captured: only path was enabled.
	if got := rt.Derivations("link"); got != nil {
		t.Fatalf("link ring exists without being enabled: %v", got)
	}

	rt.DisableProvenance("")
	if rt.ProvenanceEnabled() || len(rt.ProvenanceTables()) != 0 {
		t.Fatal("capture still enabled after DisableProvenance")
	}
}

func TestProvenanceRingBounded(t *testing.T) {
	rt := NewRuntime("n1")
	if err := rt.InstallSource(provProgram); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("path", 4)
	var ext []Tuple
	for i := 0; i < 32; i++ {
		ext = append(ext, NewTuple("link", Int(int64(i)), Int(int64(i+100))))
	}
	provStep(t, rt, 1, ext...)
	if got := len(rt.Derivations("path")); got != 4 {
		t.Fatalf("ring holds %d derivations, capacity 4", got)
	}
}

// TestProvenanceToggleViaRelation drives capture purely through the
// sys::prov relation from a rule — the metaprogramming path.
func TestProvenanceToggleViaRelation(t *testing.T) {
	rt := NewRuntime("n1")
	src := provProgram + `
		event enable(T: string);
		e1 sys::prov(T, 8) :- enable(T);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	// Step 1 derives the sys::prov row; the capture set syncs at the
	// start of step 2.
	provStep(t, rt, 1, NewTuple("enable", Str("path")))
	if rt.ProvenanceEnabled() {
		t.Fatal("capture enabled before the sync step")
	}
	provStep(t, rt, 2, NewTuple("link", Int(1), Int(2)))
	if !rt.ProvenanceEnabled() {
		t.Fatal("sys::prov row did not enable capture")
	}
	if len(rt.DerivationsOf("path", NewTuple("path", Int(1), Int(2)).Fingerprint())) == 0 {
		t.Fatal("no derivation captured after relation toggle")
	}
}

// TestProvenanceWildcardAndAgg checks "*" capture plus the aggregate
// binding-count record.
func TestProvenanceWildcardAndAgg(t *testing.T) {
	rt := NewRuntime("n1")
	src := `
		table obs(K: int) keys(0);
		table total(N: int) keys(0);
		a1 total(count<K>) :- obs(K);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("*", 16)
	provStep(t, rt, 1,
		NewTuple("obs", Int(1)), NewTuple("obs", Int(2)), NewTuple("obs", Int(3)))
	got := rt.DerivationsOf("total", NewTuple("total", Int(3)).Fingerprint())
	if len(got) == 0 {
		t.Fatal("no derivation for aggregate head")
	}
	d := got[len(got)-1]
	if d.Agg != 3 {
		t.Fatalf("aggregate derivation records %d bindings, want 3", d.Agg)
	}
	if len(d.Body) != 0 {
		t.Fatalf("aggregate derivation carries body refs: %v", d.Body)
	}
	// "*" must not capture sys:: tables.
	for _, name := range rt.ProvenanceTables() {
		if len(name) > 5 && name[:5] == "sys::" {
			t.Fatalf("wildcard capture picked up %s", name)
		}
	}
}

// TestProvenancePerGroupAgg: a group re-collected on its own records
// its binding count like one collected with all the others.
func TestProvenancePerGroupAgg(t *testing.T) {
	rt := loadCountTasks(t, 3)
	rt.EnableProvenance("job_done_cnt", 16)
	provStep(t, rt, 2, NewTuple("set_task", Int(1), Int(9), Str("map"), Str("done")))
	if n := ruleNamed(rt, "jc1").stats.groupEvals; n != 1 {
		t.Fatalf("jc1 re-collected %d single groups, want 1", n)
	}
	got := rt.DerivationsOf("job_done_cnt", NewTuple("job_done_cnt", Int(1), Int(10)).Fingerprint())
	if len(got) != 1 || got[0].Rule != "jc1" || got[0].Agg != 10 || len(got[0].Body) != 0 {
		t.Fatalf("want one derivation by jc1 over 10 bindings, got %v", got)
	}
}

// TestProvenanceRemoteSend: a head routed to another node is recorded
// locally with To set, so cross-node chases find the origin.
func TestProvenanceRemoteSend(t *testing.T) {
	rt := NewRuntime("n1")
	src := `
		table out(P: addr, K: int) keys(0,1);
		event kick(K: int);
		s1 out(@A, K) :- kick(K), A := "n2";
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	rt.EnableProvenance("out", 8)
	env, err := rt.Step(1, []Tuple{NewTuple("kick", Int(7))})
	if err != nil {
		t.Fatal(err)
	}
	if len(env) != 1 {
		t.Fatalf("expected 1 envelope, got %d", len(env))
	}
	ds := rt.DerivationsOf("out", env[0].Tuple.Fingerprint())
	if len(ds) == 0 {
		t.Fatal("remote send not recorded in origin's ring")
	}
	if ds[0].To != "n2" {
		t.Fatalf("send recorded with To=%q, want n2", ds[0].To)
	}
}

func TestFindPattern(t *testing.T) {
	rt := NewRuntime("n1")
	if err := rt.InstallSource(provProgram); err != nil {
		t.Fatal(err)
	}
	provStep(t, rt, 1,
		NewTuple("link", Int(1), Int(2)),
		NewTuple("link", Int(2), Int(3)))
	table, tuples, err := rt.FindPattern(`path(1, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if table != "path" || len(tuples) != 2 {
		t.Fatalf("path(1, X) matched %d tuples in %s, want 2 in path", len(tuples), table)
	}
	if _, tuples, err = rt.FindPattern(`path(_, _)`); err != nil || len(tuples) != 3 {
		t.Fatalf("path(_, _) matched %d (err %v), want 3", len(tuples), err)
	}
	if _, tuples, err = rt.FindPattern(`path(1, 3);`); err != nil || len(tuples) != 1 {
		t.Fatalf("ground pattern matched %d (err %v), want 1", len(tuples), err)
	}
	if _, _, err = rt.FindPattern(`nosuch(1)`); err == nil {
		t.Fatal("undeclared table did not error")
	}
	if _, _, err = rt.FindPattern(`path(1)`); err == nil {
		t.Fatal("arity mismatch did not error")
	}
}

// TestProfilerCounters exercises the always-on fire/retract counters
// and the profiling-gated wall-time + stratum-iteration recording.
func TestProfilerCounters(t *testing.T) {
	rt := NewRuntime("n1")
	if err := rt.InstallSource(provProgram); err != nil {
		t.Fatal(err)
	}
	rt.SetProfiling(true)
	var lastIters []int32
	rt.SetStepHook(func(st StepStats) {
		lastIters = append(lastIters[:0], st.StratumIters...)
	})
	provStep(t, rt, 1,
		NewTuple("link", Int(1), Int(2)),
		NewTuple("link", Int(2), Int(3)),
		NewTuple("link", Int(3), Int(4)))

	profiles := rt.RuleProfiles()
	byName := map[string]RuleProfile{}
	for _, p := range profiles {
		byName[p.Rule] = p
	}
	if byName["p1"].Fires == 0 || byName["p2"].Fires == 0 {
		t.Fatalf("profiler recorded no fires: %+v", profiles)
	}
	if byName["p1"].WallNS == 0 && byName["p2"].WallNS == 0 {
		t.Fatalf("profiling on but no wall time attributed: %+v", profiles)
	}
	if len(lastIters) == 0 {
		t.Fatal("step hook saw no stratum iterations while profiling")
	}
	sp := rt.StratumProfiles()
	if len(sp) == 0 || sp[0].Steps == 0 {
		t.Fatalf("no stratum profile recorded: %+v", sp)
	}
	// Transitive closure over a 3-link chain needs >1 fixpoint iteration.
	var maxIters int64
	for _, s := range sp {
		if s.Max > maxIters {
			maxIters = s.Max
		}
	}
	if maxIters < 2 {
		t.Fatalf("TC fixpoint reported max %d iterations, want >= 2", maxIters)
	}
	// RuleStats must agree with the per-rule blocks (delta variants
	// share their parent's counters).
	stats := rt.RuleStats()
	if stats["p1"] != byName["p1"].Fires || stats["p2"] != byName["p2"].Fires {
		t.Fatalf("RuleStats %v disagrees with RuleProfiles %+v", stats, profiles)
	}
}

// TestRetractionAttribution: delete rules attribute removed tuples to
// their stats block and StepStats.Retracted counts them.
func TestRetractionAttribution(t *testing.T) {
	rt := NewRuntime("n1")
	src := `
		table f(K: int) keys(0);
		event rm(K: int);
		d1 delete f(K) :- rm(K), f(K);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	var retracted int64
	rt.SetStepHook(func(st StepStats) { retracted = st.Retracted })
	provStep(t, rt, 1, NewTuple("f", Int(1)), NewTuple("f", Int(2)))
	provStep(t, rt, 2, NewTuple("rm", Int(1)))
	if retracted != 1 {
		t.Fatalf("StepStats.Retracted = %d, want 1", retracted)
	}
	for _, p := range rt.RuleProfiles() {
		if p.Rule == "d1" && p.Retracted != 1 {
			t.Fatalf("rule d1 retracted = %d, want 1", p.Retracted)
		}
	}
}
