// Package evalbench defines the Overlog evaluator's microbenchmark
// workloads in importable form. The same drivers back two consumers:
// `go test -bench ./internal/overlog` (thin wrappers in bench_test.go)
// and the benchmark's eval_batch workload (bench/eval.go), which looks
// three of them up by name in Suite() and times their Once bodies.
//
// Each workload isolates one axis of the evaluator's cost model (see
// DESIGN.md §11): fixpoint recursion, multi-way index probing,
// aggregate recomputation, the duplicate-derivation fast path, and raw
// table insert/probe throughput.
package evalbench

import (
	"fmt"
	"testing"

	"repro/internal/overlog"
)

// Bench names one workload. Fn is the `go test -bench` driver; Once
// runs the iteration body a single time, on a fresh runtime (what
// eval_batch times).
type Bench struct {
	Name string
	Fn   func(b *testing.B)
	Once func() error
}

// Suite returns every evaluator workload in report order.
func Suite() []Bench {
	return []Bench{
		{
			Name: "FixpointTransitiveClosure/n=64",
			Fn:   func(b *testing.B) { TransitiveClosure(b, 64) },
			Once: func() error { return tcOnce(tcFacts(64)) },
		},
		{
			Name: "FixpointTransitiveClosure/n=256",
			Fn:   func(b *testing.B) { TransitiveClosure(b, 256) },
			Once: func() error { return tcOnce(tcFacts(256)) },
		},
		{Name: "FixpointMultiWayJoin", Fn: MultiWayJoin, Once: func() error { return multiJoinOnce(multiJoinFacts()) }},
		{Name: "FixpointAggHeavy", Fn: AggHeavy, Once: aggHeavyOnce},
		{Name: "SteadyStateProbe", Fn: SteadyStateProbe, Once: steadyOnce},
		{Name: "TableInsertLookup", Fn: TableInsertLookup, Once: insertLookupOnce},
	}
}

// tcProgram is the classic transitive-closure workload: one linear rule
// and one recursive join, both driven through the semi-naive loop.
const tcProgram = `
	table edge(A: int, B: int) keys(0,1);
	table reach(A: int, B: int) keys(0,1);
	r1 reach(A, B) :- edge(A, B);
	r2 reach(A, C) :- edge(A, B), reach(B, C);
`

// tcFacts builds a graph of n chain edges plus n/4 shortcut edges
// (deterministic, no RNG) so the closure has real fan-out.
func tcFacts(n int) []overlog.Tuple {
	facts := make([]overlog.Tuple, 0, n+n/4)
	for i := 0; i < n; i++ {
		facts = append(facts, overlog.NewTuple("edge", overlog.Int(int64(i)), overlog.Int(int64(i+1))))
	}
	for i := 0; i < n/4; i++ {
		from := (i * 7) % n
		to := (from + 13 + i) % n
		facts = append(facts, overlog.NewTuple("edge", overlog.Int(int64(from)), overlog.Int(int64(to))))
	}
	return facts
}

func tcOnce(facts []overlog.Tuple) error {
	rt := overlog.NewRuntime("bench")
	if err := rt.InstallSource(tcProgram); err != nil {
		return err
	}
	if _, err := rt.Step(1, facts); err != nil {
		return err
	}
	if rt.Table("reach").Len() == 0 {
		return fmt.Errorf("empty closure")
	}
	return nil
}

// TransitiveClosure is the headline join-heavy fixpoint workload.
func TransitiveClosure(b *testing.B, n int) {
	facts := tcFacts(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tcOnce(facts); err != nil {
			b.Fatal(err)
		}
	}
}

// multiJoinProgram exercises a 4-atom join pipeline. In the new-r and
// new-s variants every non-frontier atom is a secondary-index probe. The
// new-u variant binds nothing r can be probed by, so its textual order
// full-scans r and probes s with each row (160 000 probes for 8 000
// bindings); it carries the alternative join order u → s by C → r by B,
// taken because s (40 rows) is smaller than r (400).
const multiJoinProgram = `
	table r(A: int, B: int) keys(0,1);
	table s(B: int, C: int) keys(0,1);
	table u(C: int, D: int) keys(0,1);
	table q(A: int, D: int) keys(0,1);
	j1 q(A, D) :- r(A, B), s(B, C), u(C, D), A != D;
`

func multiJoinFacts() []overlog.Tuple {
	const n = 400
	var facts []overlog.Tuple
	for i := 0; i < n; i++ {
		facts = append(facts, overlog.NewTuple("r", overlog.Int(int64(i)), overlog.Int(int64(i%40))))
		facts = append(facts, overlog.NewTuple("s", overlog.Int(int64(i%40)), overlog.Int(int64(i%20))))
		facts = append(facts, overlog.NewTuple("u", overlog.Int(int64(i%20)), overlog.Int(int64(i))))
	}
	return facts
}

func multiJoinOnce(facts []overlog.Tuple) error {
	rt := overlog.NewRuntime("bench")
	if err := rt.InstallSource(multiJoinProgram); err != nil {
		return err
	}
	if _, err := rt.Step(1, facts); err != nil {
		return err
	}
	if rt.Table("q").Len() == 0 {
		return fmt.Errorf("empty join result")
	}
	return nil
}

// MultiWayJoin drives the 4-atom join pipeline to fixpoint.
func MultiWayJoin(b *testing.B) {
	facts := multiJoinFacts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := multiJoinOnce(facts); err != nil {
			b.Fatal(err)
		}
	}
}

// aggProgram recomputes grouped aggregates over a growing base table
// across many steps — the materialized-view maintenance path.
const aggProgram = `
	table obs(K: int, V: int) keys(0,1);
	table stat(K: int, C: int, S: int, Mn: int, Mx: int) keys(0);
	a1 stat(K, count<V>, sum<V>, min<V>, max<V>) :- obs(K, V);
`

func aggHeavyOnce() error {
	const steps, perStep = 40, 25
	rt := overlog.NewRuntime("bench")
	if err := rt.InstallSource(aggProgram); err != nil {
		return err
	}
	v := int64(0)
	for s := 1; s <= steps; s++ {
		batch := make([]overlog.Tuple, 0, perStep)
		for j := 0; j < perStep; j++ {
			batch = append(batch, overlog.NewTuple("obs", overlog.Int(v%16), overlog.Int(v)))
			v++
		}
		if _, err := rt.Step(int64(s), batch); err != nil {
			return err
		}
	}
	if rt.Table("stat").Len() != 16 {
		return fmt.Errorf("stat groups: %d", rt.Table("stat").Len())
	}
	return nil
}

// AggHeavy steps an aggregate view under a stream of inserts.
func AggHeavy(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := aggHeavyOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// SteadyProgram is the duplicate-derivation workload: every step
// re-joins an event against a warm table and derives tuples that are
// already stored, so the evaluator should do probe work only.
const SteadyProgram = `
	table big(A: int, B: int) keys(0,1);
	table out(A: int, B: int) keys(0,1);
	event tick(Ord: int, T: int);
	p1 out(A, B) :- tick(_, _), big(A, B);
`

func steadyWarm() (*overlog.Runtime, error) {
	rt := overlog.NewRuntime("bench")
	if err := rt.InstallSource(SteadyProgram); err != nil {
		return nil, err
	}
	var warm []overlog.Tuple
	for i := 0; i < 512; i++ {
		warm = append(warm, overlog.NewTuple("big", overlog.Int(int64(i)), overlog.Int(int64(i*3))))
	}
	if _, err := rt.Step(1, warm); err != nil {
		return nil, err
	}
	return rt, nil
}

func steadyOnce() error {
	rt, err := steadyWarm()
	if err != nil {
		return err
	}
	_, err = rt.Step(2, []overlog.Tuple{overlog.NewTuple("tick", overlog.Int(0), overlog.Int(0))})
	return err
}

// SteadyStateProbe measures the duplicate-derivation fast path.
func SteadyStateProbe(b *testing.B) {
	rt, err := steadyWarm()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Step(int64(i+2), []overlog.Tuple{overlog.NewTuple("tick", overlog.Int(int64(i)), overlog.Int(0))}); err != nil {
			b.Fatal(err)
		}
	}
}

// insertLookupDecl/insertLookupFacts are built once at package init:
// the benchmark measures storage behaviour (bulk ingest + keyed
// probes), not tuple construction. Reusing the facts across
// iterations is safe because normalize is idempotent and InsertBatch
// copies values into its own backing.
var (
	insertLookupDecl = &overlog.TableDecl{Name: "t", Cols: []overlog.ColDecl{
		{Name: "A", Type: overlog.KindInt},
		{Name: "B", Type: overlog.KindString},
	}, KeyCols: []int{0}}
	insertLookupKeyCols = []int{0}
	insertLookupFacts   = func() []overlog.Tuple {
		facts := make([]overlog.Tuple, 256)
		for i := range facts {
			facts[i] = overlog.NewTuple("t", overlog.Int(int64(i)), overlog.Str("payload"))
		}
		return facts
	}()
)

func insertLookupOnce() error {
	tbl := overlog.NewTable(insertLookupDecl)
	n, err := tbl.InsertBatch(insertLookupFacts)
	if err != nil {
		return err
	}
	if n != 256 {
		return fmt.Errorf("inserted: %d", n)
	}
	hits := 0
	var dst []overlog.Tuple
	var key [1]overlog.Value
	for j := 0; j < 256; j++ {
		key[0] = insertLookupFacts[j].Vals[0]
		dst = tbl.MatchInto(dst[:0], insertLookupKeyCols, key[:])
		hits += len(dst)
	}
	if hits != 256 {
		return fmt.Errorf("hits: %d", hits)
	}
	return nil
}

// TableInsertLookup isolates raw storage: insert-heavy then
// probe-heavy phases against one table.
func TableInsertLookup(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := insertLookupOnce(); err != nil {
			b.Fatal(err)
		}
	}
}
