package overlog

import (
	"runtime"
	"strings"
	"testing"
)

// steadyProgram mirrors evalbench.SteadyProgram; duplicated here
// because this file needs package-internal access (raceEnabled) while
// the evalbench package sits outside overlog's test binary.
const steadyProgram = `
	table big(A: int, B: int) keys(0,1);
	table out(A: int, B: int) keys(0,1);
	event tick(Ord: int, T: int);
	p1 out(A, B) :- tick(_, _), big(A, B);
`

// TestProbePathAllocGuard pins the allocation budget of the evaluator's
// steady-state hot path: an event joining a warm table where every
// derived tuple is already stored. With fingerprint storage, prepared
// probe plans, and clone-on-store this is probe work only — the budget
// below has ~3x slack over the measured cost (≈10 allocs per step for
// the event-tuple routing itself), so it catches an accidental
// per-probe or per-candidate allocation (which shows up as hundreds)
// without flaking on incidental churn.
func TestProbePathAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	rt := NewRuntime("guard")
	if err := rt.InstallSource(steadyProgram); err != nil {
		t.Fatal(err)
	}
	var warm []Tuple
	for i := 0; i < 256; i++ {
		warm = append(warm, NewTuple("big", Int(int64(i)), Int(int64(i*3))))
	}
	if _, err := rt.Step(1, warm); err != nil {
		t.Fatal(err)
	}
	step := int64(1)
	// Warm the plan caches (first post-load step may build indexes).
	for i := 0; i < 3; i++ {
		step++
		if _, err := rt.Step(step, []Tuple{NewTuple("tick", Int(step), Int(0))}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		step++
		if _, err := rt.Step(step, []Tuple{NewTuple("tick", Int(step), Int(0))}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 32
	if avg > budget {
		t.Fatalf("steady-state step allocates %.1f/run, budget %d — a per-probe or per-candidate allocation crept into the hot path", avg, budget)
	}
}

// TestProvenanceDisabledAllocGuard pins the cost of the provenance and
// profiling hooks when both are off: zero extra allocations per step.
// It measures the same steady-state workload twice on one runtime —
// before capture was ever enabled, and after an enable/disable cycle
// (so the sys::prov sync path has run) — and requires both to stay at
// the baseline.
func TestProvenanceDisabledAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	rt := NewRuntime("guard")
	if err := rt.InstallSource(steadyProgram); err != nil {
		t.Fatal(err)
	}
	var warm []Tuple
	for i := 0; i < 256; i++ {
		warm = append(warm, NewTuple("big", Int(int64(i)), Int(int64(i*3))))
	}
	if _, err := rt.Step(1, warm); err != nil {
		t.Fatal(err)
	}
	step := int64(1)
	measure := func() float64 {
		for i := 0; i < 3; i++ {
			step++
			if _, err := rt.Step(step, []Tuple{NewTuple("tick", Int(step), Int(0))}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			step++
			if _, err := rt.Step(step, []Tuple{NewTuple("tick", Int(step), Int(0))}); err != nil {
				t.Fatal(err)
			}
		})
	}
	before := measure()
	rt.EnableProvenance("out", 64)
	rt.SetProfiling(true)
	step++
	if _, err := rt.Step(step, []Tuple{NewTuple("tick", Int(step), Int(0))}); err != nil {
		t.Fatal(err)
	}
	rt.DisableProvenance("")
	rt.SetProfiling(false)
	after := measure()
	if after > before {
		t.Fatalf("capture-disabled step allocates %.1f/run vs %.1f baseline — the provenance/profiling hooks leak allocations when off", after, before)
	}
}

// TestBatchInsertLookupAllocGuard pins the bulk-ingest path that
// evalbench's TableInsertLookup measures: 256 keyed inserts through
// InsertBatch plus 256 index probes against a fresh table. Shared
// value/chain backing, the pre-sized rows map, and the two-pass index
// build keep this to a few dozen allocations; the budget catches a
// regression back to per-tuple cloning or per-bucket index growth
// (which shows up as >1000).
func TestBatchInsertLookupAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	decl := &TableDecl{Name: "t", Cols: []ColDecl{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindString},
	}, KeyCols: []int{0}}
	facts := make([]Tuple, 256)
	for i := range facts {
		facts[i] = NewTuple("t", Int(int64(i)), Str("payload"))
	}
	keyCols := []int{0}
	var dst []Tuple
	var key [1]Value
	avg := testing.AllocsPerRun(20, func() {
		tbl := NewTable(decl)
		n, err := tbl.InsertBatch(facts)
		if err != nil {
			t.Fatal(err)
		}
		if n != 256 {
			t.Fatalf("inserted %d", n)
		}
		hits := 0
		for j := range facts {
			key[0] = facts[j].Vals[0]
			dst = tbl.MatchInto(dst[:0], keyCols, key[:])
			hits += len(dst)
		}
		if hits != 256 {
			t.Fatalf("hits %d", hits)
		}
	})
	const budget = 100
	if avg > budget {
		t.Fatalf("batch insert+lookup allocates %.1f/run, budget %d — bulk ingest lost its shared backing or the index build regressed to per-bucket growth", avg, budget)
	}
}

// TestInsertBatchSemantics checks InsertBatch against Insert on the
// tricky rows: exact duplicates (skipped), key replacement (counted,
// old row evicted from indexes), and post-batch deletion (removeRow's
// in-place compaction must stay confined to carved buckets).
func TestInsertBatchSemantics(t *testing.T) {
	decl := &TableDecl{Name: "t", Cols: []ColDecl{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindString},
	}, KeyCols: []int{0}}
	tbl := NewTable(decl)
	batch := []Tuple{
		NewTuple("t", Int(1), Str("a")),
		NewTuple("t", Int(2), Str("b")),
		NewTuple("t", Int(1), Str("a")),  // exact dup: skipped
		NewTuple("t", Int(2), Str("b2")), // key replace: counted
		NewTuple("t", Int(3), Str("c")),
	}
	n, err := tbl.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("mutated %d, want 4 (3 inserts + 1 replace)", n)
	}
	if tbl.Len() != 3 {
		t.Fatalf("len %d, want 3", tbl.Len())
	}
	if got := tbl.Match([]int{0}, []Value{Int(2)}); len(got) != 1 || got[0].Vals[1].AsString() != "b2" {
		t.Fatalf("replacement not visible through index: %v", got)
	}
	// Mirror runs through Insert must agree on full contents.
	mirror := NewTable(decl)
	for _, tp := range batch {
		if _, _, err := mirror.Insert(tp.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := tbl.Dump(), mirror.Dump(); a != b {
		t.Fatalf("batch vs serial contents diverged:\n%s\nvs\n%s", a, b)
	}
	// Deleting and re-inserting exercises bucket compaction on the
	// carved chain slices.
	if ok, err := tbl.Delete(NewTuple("t", Int(1), Str("a"))); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := tbl.InsertBatch([]Tuple{NewTuple("t", Int(4), Str("d"))}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 || !tbl.Contains(NewTuple("t", Int(4), Str("d"))) || tbl.Contains(NewTuple("t", Int(1), Str("a"))) {
		t.Fatalf("post-delete batch state wrong: %s", tbl.Dump())
	}
}

// TestDuplicateInsertAllocGuard pins the cheapest storage path: an
// insert that is already present must reject without cloning.
func TestDuplicateInsertAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	decl := &TableDecl{Name: "t", Cols: []ColDecl{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindString},
	}, KeyCols: []int{0, 1}}
	tbl := NewTable(decl)
	tp := NewTuple("t", Int(42), Str("payload"))
	if _, _, err := tbl.Insert(tp); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		added, _, err := tbl.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		if added {
			t.Fatal("duplicate insert reported as added")
		}
	})
	if avg > 0 {
		t.Fatalf("duplicate insert allocates %.1f/run, want 0", avg)
	}
}

// stepBytes runs warm-up steps, then reports the bytes one run of step
// allocates, averaged over 200.
func stepBytes(step func()) uint64 {
	for i := 0; i < 10; i++ {
		step()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// tinyStepProgram is the shape of an FS or Paxos request step: one
// message lands and is relayed through a few event tables, each joined
// against a small persistent table.
const tinyStepProgram = `
	table cfg(K: string, V: int) keys(0);
	table seen(Id: int) keys(0);
	event e1(Id: int, A: string, B: string, C: int);
	event e2(Id: int, A: string, B: string, C: int);
	event e3(Id: int, A: string, B: string, C: int);
	event e4(Id: int, A: string, B: string, C: int);
	cfg("k", 1);
	t1 e2(Id, A, B, V) :- e1(Id, A, B, _), cfg("k", V);
	t2 e3(Id, A, B, V) :- e2(Id, A, B, _), cfg("k", V);
	t3 e4(Id, A, B, V) :- e3(Id, A, B, _), cfg("k", V);
	t4 seen(0) :- e4(Id, _, _, _), cfg("k", Id);
`

// TestTinyStepAllocGuard pins what a step that touches a few event
// tables with one tuple each pays in bytes. Stored-tuple arenas, chain
// arenas and index backlogs are dropped when an event table clears, so
// their first chunk must be a few entries, not a bulk-sized one: at
// full-size first chunks this step allocated ~160 KB (41 KB per event
// table touched), which was half of fs_sim's CPU in GC and malloc.
// What is left is storage's alone — per event table touched, a first
// arena chunk (8 values, 384 B) and a first chain chunk (4 rows, 160 B),
// for the one table with an index a 96 B backlog, and the caller's own
// input tuple: 2512 B, which is the budget give or take a word. The
// stepping loop allocates nothing (2568 B when every stratum grew a
// rule list and every rule entered made a closure); getting under
// ROADMAP's 1 KB bar is the compact-tuple item's job, not the loop's.
func TestTinyStepAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	rt := NewRuntime("guard")
	if err := rt.InstallSource(tinyStepProgram); err != nil {
		t.Fatal(err)
	}
	step := int64(0)
	run := func() {
		step++
		if _, err := rt.Step(step, []Tuple{NewTuple("e1", Int(step), Str("a"), Str("b"), Int(0))}); err != nil {
			t.Fatal(err)
		}
	}
	perStep := stepBytes(run)
	const budget = 2540
	if perStep > budget {
		t.Fatalf("a one-tuple step through four event tables allocates %d B, budget %d — an arena or backlog is back to a bulk-sized first chunk, or the stepping loop allocates again", perStep, budget)
	}
	t.Logf("%d B per step", perStep)
}

// TestAggStepAllocGuard pins what the step of
// TestAggregateStepVisitsOneGroup allocates — one of 20000 rows changes
// state, one of 2000 groups is recounted and its head row replaced — to
// what storage costs: the event, the task row, the head row, and the
// job's index bucket growing by the row that moved into it (1.9 KB).
// Aggregate evaluation itself reuses the rule's collector, its groups
// and its head buffer, and the retraction record its backing. (With a
// collector, a groups map and a head tuple per group per evaluation
// this step allocated 1.35 MB, and jc1 and md1 4.4 MB per mr_sim job.)
func TestAggStepAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	rt := loadCountTasks(t, 2000)
	step, job := int64(1), int64(0)
	states := [2]string{"done", "running"}
	perStep := stepBytes(func() {
		step++
		job = (job + 7) % 2000
		set := NewTuple("set_task", Int(job), Int(9), Str("map"), Str(states[(step/2000)%2]))
		if _, err := rt.Step(step, []Tuple{set}); err != nil {
			t.Fatal(err)
		}
	})
	if n := ruleNamed(rt, "jc1").stats.groupEvals; n < 200 {
		t.Fatalf("jc1 re-collected %d single groups over the measured steps, want one per step", n)
	}
	const budget = 3 << 10
	if perStep > budget {
		t.Fatalf("a step that recounts one group of 2000 allocates %d B, budget %d — aggregate evaluation allocates per evaluation or per group again", perStep, budget)
	}
	t.Logf("%d B per step", perStep)
}

// TestDisplaceStepAllocGuard pins the other side of the retraction
// record: a step that replaces a row under its primary key in a table
// no aggregate reads keeps no record of the displaced row, and
// allocates no more than it did before there was one: 1132 B, which is
// the budget (884 B now that the per-step dirty map is cleared in
// place instead of remade).
func TestDisplaceStepAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	rt := NewRuntime("guard")
	mustInstall(t, rt, `
		table kv(K: int, V: int) keys(0);
		event put(K: int, V: int);
		p1 kv(K, V) :- put(K, V);
	`)
	step := int64(0)
	perStep := stepBytes(func() {
		step++
		if _, err := rt.Step(step, []Tuple{NewTuple("put", Int(step%16), Int(step))}); err != nil {
			t.Fatal(err)
		}
	})
	for _, ts := range rt.ts {
		if cap(ts.retracted) != 0 {
			t.Fatalf("retractions recorded for %s, which no per-group aggregate reads", ts.tbl.Name())
		}
	}
	const budget = 1132
	if perStep > budget {
		t.Fatalf("a step that displaces one keyed row allocates %d B, budget %d", perStep, budget)
	}
	t.Logf("%d B per step", perStep)
}

// TestGeneratorAlternativeAllocGuard: a steady step whose delta variant
// takes the alternative join order (e(C) → s by C → r by B, instead of
// a full scan of r probing s by each row) allocates no more than the
// same step in textual order. Every derivation is a duplicate, so what
// either allocates is the event's storage.
func TestGeneratorAlternativeAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	perStep := func(strip bool) uint64 {
		rt := NewRuntime("guard")
		mustInstall(t, rt, `
			table r(A: int, B: int) keys(0,1);
			table s(B: int, C: int) keys(0,1);
			table q(A: int, C: int) keys(0,1);
			event e(C: int);
			a1 q(A, C) :- e(C), r(A, B), s(B, C);
		`)
		if strip {
			stripJoinAlternatives(rt)
		}
		var load []Tuple
		for i := int64(0); i < 400; i++ {
			load = append(load, NewTuple("r", Int(i), Int(i%40)))
		}
		for b := int64(0); b < 40; b++ {
			load = append(load, NewTuple("s", Int(b), Int(b%20)))
		}
		step := int64(1)
		if _, err := rt.Step(step, load); err != nil {
			t.Fatal(err)
		}
		run := func() {
			step++
			if _, err := rt.Step(step, []Tuple{NewTuple("e", Int(step%20))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			run() // derive every q row once
		}
		// The least of several measurements: a GC or a scheduler
		// hiccup during one run can only add bytes, never take them.
		bytes := stepBytes(run)
		for i := 0; i < 4; i++ {
			bytes = min(bytes, stepBytes(run))
		}
		if took := ruleNamed(rt, "a1").stats.altEvals; strip == (took != 0) {
			t.Fatalf("strip=%v: a1 took the alternative in %d evaluations", strip, took)
		}
		return bytes
	}
	with, without := perStep(false), perStep(true)
	if with > without {
		t.Fatalf("a steady step allocates %d B in the alternative join order, %d B in textual order", with, without)
	}
	t.Logf("%d B per step, %d B in textual order", with, without)
}

// TestIdleStratumAllocGuard: a step that triggers one of five strata
// allocates nothing for the other four — what it allocates is what the
// same step allocates when the triggered rule is the whole program.
// (Every stratum used to make a rule list, a consumed map and a window
// map per step whether or not anything it reads had changed.)
func TestIdleStratumAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	perStep := func(src string) uint64 {
		rt := NewRuntime("guard")
		mustInstall(t, rt, src)
		step := int64(0)
		if strings.Contains(src, "e0") {
			step++
			if _, err := rt.Step(step, []Tuple{NewTuple("e0", Int(1))}); err != nil {
				t.Fatal(err)
			}
		}
		return stepBytes(func() {
			step++
			if _, err := rt.Step(step, []Tuple{NewTuple("z", Int(step))}); err != nil {
				t.Fatal(err)
			}
		})
	}
	alone, beside := perStep(oneStratumProgram), perStep(fiveStrataProgram)
	if beside > alone {
		t.Fatalf("a step that triggers one rule allocates %d B beside four idle strata, %d B alone", beside, alone)
	}
	t.Logf("%d B per step", beside)
}
