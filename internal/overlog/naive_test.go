package overlog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropNaiveAndSemiNaiveAgree differentially tests the evaluator:
// the naive ablation path and the semi-naive path must compute the
// same fixpoint on random positive programs with aggregates.
func TestPropNaiveAndSemiNaiveAgree(t *testing.T) {
	const src = `
		table edge(A: int, B: int) keys(0,1);
		table reach(A: int, B: int) keys(0,1);
		table fanout(A: int, N: int) keys(0);
		r1 reach(A, B) :- edge(A, B);
		r2 reach(A, C) :- edge(A, B), reach(B, C);
		r3 fanout(A, count<B>) :- reach(A, B);
	`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var facts []Tuple
		n := 3 + r.Intn(15)
		for i := 0; i < n; i++ {
			facts = append(facts, NewTuple("edge", Int(r.Int63n(6)), Int(r.Int63n(6))))
		}
		run := func(opts ...Option) (string, string) {
			rt := NewRuntime("n1", opts...)
			if err := rt.InstallSource(src); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Step(1, facts); err != nil {
				t.Fatal(err)
			}
			return rt.Table("reach").Dump(), rt.Table("fanout").Dump()
		}
		sr, sf := run()
		nr, nf := run(WithNaiveEval())
		return sr == nr && sf == nf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveEvalEventsAndDeletes exercises the naive path's handling of
// events, negation, and delete rules on a realistic mini-protocol.
func TestNaiveEvalEventsAndDeletes(t *testing.T) {
	rt := NewRuntime("n1", WithNaiveEval())
	mustInstall(t, rt, `
		table kv(K: string, V: int) keys(0);
		table missing(K: string) keys(0);
		event put(K: string, V: int);
		event del(K: string);
		event probe(K: string);
		r1 kv(K, V) :- put(K, V);
		r2 delete kv(K, V) :- del(K), kv(K, V);
		r3 missing(K) :- probe(K), notin kv(K, _);
	`)
	rt.Step(1, []Tuple{NewTuple("put", Str("a"), Int(1)), NewTuple("put", Str("b"), Int(2))})
	rt.Step(2, []Tuple{NewTuple("del", Str("a"))})
	rt.Step(3, []Tuple{NewTuple("probe", Str("a")), NewTuple("probe", Str("b"))})
	if rt.Table("kv").Len() != 1 {
		t.Fatalf("kv: %s", rt.Table("kv").Dump())
	}
	got := rt.Table("missing").Dump()
	if got != `missing("a")` {
		t.Fatalf("missing: %q", got)
	}
}

// TestComputedKeyDifferential is the oracle for the computed-key access
// path: the three computed-key programs of the differential pool, each
// over seeded 12-step streams (long enough that keys deleted early are
// re-inserted, rows are replaced under their primary key and rows leave
// the indexed table), through four evaluators that reach the join four
// ways — naive (never runs a delta variant), semi-naive (variant plus
// computed-key probe), and parallel at 2 and 4 workers (the same probe
// from pool workers against a pre-synced index) — which must agree on
// every table after every timestep.
func TestComputedKeyDifferential(t *testing.T) {
	for _, prog := range diffPrograms {
		if !strings.HasPrefix(prog.name, "computed-key-") {
			continue
		}
		var probedOnPool int64
		for seed := int64(1); seed <= 25; seed++ {
			r := rand.New(rand.NewSource(seed))
			names := []string{"semi-naive", "naive", "parallel-2", "parallel-4"}
			rts := []*Runtime{
				NewRuntime("n1"),
				NewRuntime("n1", WithNaiveEval()),
				NewRuntime("n1", WithParallelFixpoint(2), WithParallelForce()),
				NewRuntime("n1", WithParallelFixpoint(4), WithParallelForce()),
			}
			for _, rt := range rts {
				rt.parMinFrontier = 1
				defer rt.Close()
				mustInstall(t, rt, prog.src)
			}
			for step := int64(1); step <= 12; step++ {
				batch := prog.batch(r, 1+r.Intn(12), 5)
				var want string
				for i, rt := range rts {
					if _, err := rt.Step(step, cloneBatch(batch)); err != nil {
						t.Fatalf("%s seed %d step %d: %s: %v", prog.name, seed, step, names[i], err)
					}
					got := dumpAll(rt)
					if i == 0 {
						want = got
					} else if got != want {
						t.Fatalf("%s seed %d step %d: %s diverged from semi-naive:\n%s\nvs\n%s",
							prog.name, seed, step, names[i], got, want)
					}
				}
			}
			for _, cr := range rts[2].cat.rules {
				if strings.Contains(mustExplain(t, rts[2], cr.name), "computed-key index") {
					probedOnPool += cr.stats.parRuns
				}
			}
		}
		if probedOnPool == 0 {
			t.Fatalf("%s: no rule with a computed-key probe ever ran on the worker pool", prog.name)
		}
	}
}

// stripComputedKeys takes every computed-key probe back out of an
// installed runtime's plans, leaving the same join orders with the
// full scans (or stored-column probes) they had before
// planComputedKeys: the reference for "with and without the index".
func stripComputedKeys(rt *Runtime) {
	for _, cr := range rt.cat.rules {
		for _, v := range append([]*compiledRule{cr}, cr.deltaVariants...) {
			if v == nil {
				continue
			}
			for _, op := range v.body {
				if op.kind == opScan && len(op.boundCols) > op.plainBound {
					op.boundCols = op.boundCols[:op.plainBound]
					op.boundExprs = op.boundExprs[:op.plainBound]
					op.prepareProbe()
				}
			}
		}
	}
}

// TestComputedKeyErrorRow: a row whose key expression fails (nth past
// the end of a short list) is a candidate of every probe, so the rule
// meets it exactly where a full scan would. Unguarded, the rule raises
// the same error the step the row arrives; with a guard ahead of the
// expression the row is stored, and every later probe hands it to the
// guard, which filters it — with the row stored before the index is
// built, arriving afterwards, and deleted again. (The probe that raises
// is pinned at the table level, TestComputedKeyIndexUnkeyedRows.)
func TestComputedKeyErrorRow(t *testing.T) {
	const guarded = computedKeyPrelude + `
		table pending(ReqId: string, Cmd: list) keys(0);
		event req(ReqId: string, Cmd: list);
		rq1 pending(Id, Cmd) :- req(Id, Cmd);
		cp1 delete pending(Id, C2) :- decided(_, Cmd), size(Cmd) > 0,
		        Id := tostr(nth(Cmd, 0)), pending(Id, C2);
	`
	unguarded := strings.Replace(guarded, "size(Cmd) > 0,", "", 1)
	good := func(slot int64, id string) Tuple { return NewTuple("dec", Int(slot), List(Str(id))) }
	short := NewTuple("dec", Int(9), List())
	req := func(id string) Tuple { return NewTuple("req", Str(id), List(Str(id))) }
	streams := map[string][][]Tuple{
		"short row before the index is built": {{good(1, "a"), short}, {req("a")}, {req("b")}},
		"short row after the index is built":  {{good(1, "a")}, {req("a")}, {short}, {req("a")}, {req("b")}},
		"short row deleted again":             {{good(1, "a"), short}, {NewTuple("undec", Int(9))}, {req("a")}, {req("b")}},
	}
	raised := 0
	for _, src := range []string{guarded, unguarded} {
		for name, stream := range streams {
			indexed, scanned := NewRuntime("n1"), NewRuntime("n1")
			mustInstall(t, indexed, src)
			mustInstall(t, scanned, src)
			stripComputedKeys(scanned)
			if !strings.Contains(mustExplain(t, indexed, "cp1"), "computed-key index") ||
				strings.Contains(mustExplain(t, scanned, "cp1"), "computed-key index") {
				t.Fatal("fixture lost its contrast: want a computed-key probe on one side only")
			}
			for i, batch := range stream {
				_, errIx := indexed.Step(int64(i+1), cloneBatch(batch))
				_, errSc := scanned.Step(int64(i+1), cloneBatch(batch))
				if fmt.Sprint(errIx) != fmt.Sprint(errSc) {
					t.Fatalf("%s, step %d: indexed error %v, scanned error %v", name, i+1, errIx, errSc)
				}
				if errIx != nil {
					if src == guarded {
						t.Fatalf("%s, step %d: the guard should have filtered the short row: %v", name, i+1, errIx)
					}
					raised++
					break // a failed step leaves the runtime mid-fixpoint
				}
				if a, b := dumpAll(indexed), dumpAll(scanned); a != b {
					t.Fatalf("%s, step %d: state diverged:\n%s\nvs\n%s", name, i+1, a, b)
				}
			}
		}
	}
	if raised != len(streams) {
		t.Fatalf("unguarded rule raised in %d of %d streams, want all", raised, len(streams))
	}
}

func mustExplain(t *testing.T, rt *Runtime, rule string) string {
	t.Helper()
	out, err := rt.Explain(rule)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestComputedKeyProbeVisitsFewRows is the scan-count guard: with 2000
// rows in the log-shaped table, one new tuple on the small side of a
// cp1-shaped rule looks at the rows its key selects, not at the log.
// (Before computed-key indexes the frontier-first variant did not
// compile, and the rule fell back to scanning all 2000.)
func TestComputedKeyProbeVisitsFewRows(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, diffProgramNamed("computed-key-delete").src)
	var log []Tuple
	for i := 0; i < 2000; i++ {
		log = append(log, NewTuple("dec", Int(int64(i)), List(Str(fmt.Sprintf("r%d", i)), Str("x"))))
	}
	if _, err := rt.Step(1, log); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(2, []Tuple{NewTuple("req", Str("r1234"), List(Str("r1234")))}); err != nil {
		t.Fatal(err)
	}
	if n := rt.Table("pending").Len(); n != 0 {
		t.Fatalf("cp1 left %d pending rows for a decided request", n)
	}
	var cp1 *compiledRule
	for _, cr := range rt.cat.rules {
		if cr.name == "cp1" {
			cp1 = cr
		}
	}
	variant := cp1.deltaForPos[cp1.scanPositions[1]] // pending carries the frontier
	if variant == nil {
		t.Fatal("cp1 has no frontier-first variant for pending")
	}
	probe := variant.body[1]
	if probe.table != "decided" {
		t.Fatalf("variant probes %s second, want decided", probe.table)
	}
	if n := len(probe.candBuf); n > 2 {
		t.Fatalf("one new pending tuple visited %d decided rows of 2000, want the 1 its key selects", n)
	}
}
