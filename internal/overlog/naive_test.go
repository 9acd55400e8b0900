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

// differentialRun is the oracle for an access path: one seeded stream
// of the program's facts, steps timesteps long, through semi-naive
// evaluation and naive (never runs a delta variant, always collects all
// groups), which must agree on every table after every timestep, and on
// the error of a step that fails. inspect sees the semi-naive runtime
// afterwards.
func differentialRun(t *testing.T, prog diffProgram, seed int64, steps int, inspect func(semi *Runtime)) {
	t.Helper()
	semi, naive := NewRuntime("n1"), NewRuntime("n1", WithNaiveEval())
	mustInstall(t, semi, prog.src)
	mustInstall(t, naive, prog.src)
	lockstep(t, prog, seed, steps, [2]string{"semi-naive", "naive"}, semi, naive, nil)
	inspect(semi)
}

// lockstep feeds one seeded stream of prog's facts to two runtimes,
// which must agree on every table after every timestep, and on the
// error when a step fails; the stream ends there, since a failed step
// leaves a runtime mid-fixpoint. after runs after each step that did
// not fail. lockstep reports the step that failed, 0 if none did.
func lockstep(t *testing.T, prog diffProgram, seed int64, steps int, names [2]string, a, b *Runtime, after func()) int64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for step := int64(1); step <= int64(steps); step++ {
		batch := prog.batch(r, 1+r.Intn(12), 5)
		_, errA := a.Step(step, cloneBatch(batch))
		_, errB := b.Step(step, cloneBatch(batch))
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%s seed %d step %d: %s error %v, %s error %v", prog.name, seed, step, names[0], errA, names[1], errB)
		}
		if errA != nil {
			return step
		}
		if got, want := dumpAll(b), dumpAll(a); got != want {
			t.Fatalf("%s seed %d step %d: %s diverged from %s:\n%s\nvs\n%s",
				prog.name, seed, step, names[1], names[0], got, want)
		}
		if after != nil {
			after()
		}
	}
	return 0
}

// TestComputedKeyDifferential is the oracle for the computed-key access
// path: the three computed-key programs of the differential pool, each
// over seeded 12-step streams (long enough that keys deleted early are
// re-inserted, rows are replaced under their primary key and rows leave
// the indexed table), through differentialRun's two evaluators: naive
// evaluation reaches the join in the rule's textual order, semi-naive
// through the frontier-first variant and its computed-key probe.
func TestComputedKeyDifferential(t *testing.T) {
	for _, prog := range diffPrograms {
		if !strings.HasPrefix(prog.name, "computed-key-") {
			continue
		}
		var firedThroughProbe int64
		for seed := int64(1); seed <= 25; seed++ {
			differentialRun(t, prog, seed, 12, func(semi *Runtime) {
				for _, cr := range semi.cat.rules {
					if strings.Contains(mustExplain(t, semi, cr.name), "computed-key index") {
						firedThroughProbe += cr.stats.fires
					}
				}
			})
		}
		if firedThroughProbe == 0 {
			t.Fatalf("%s: no rule with a computed-key probe ever fired", prog.name)
		}
	}
}

// TestAggregateDifferential is the oracle for group-at-a-time aggregate
// maintenance: every agg-* program of the differential pool over seeded
// 16-step streams through differentialRun's two evaluators. Naive
// evaluation collects all groups of every rule on every step;
// semi-naive re-collects, where the rule has a plan for it, only the
// groups a step's inserted and retracted rows touch. The counters pin
// that the comparison is between those two: the rules named perGroup
// did re-collect single groups, and the ones named wholeRule have no
// plan to, for the reason given.
func TestAggregateDifferential(t *testing.T) {
	for _, prog := range diffPrograms {
		if !strings.HasPrefix(prog.name, "agg-") {
			continue
		}
		groupEvals := map[string]int64{}
		for seed := int64(1); seed <= 25; seed++ {
			differentialRun(t, prog, seed, 16, func(semi *Runtime) {
				for _, cr := range semi.cat.rules {
					groupEvals[cr.name] += cr.stats.groupEvals
				}
				for rule, why := range prog.wholeRule {
					if want := "aggregate: whole-rule: " + why + "\n"; !strings.Contains(mustExplain(t, semi, rule), want) {
						t.Fatalf("%s: want %s%s", prog.name, want, mustExplain(t, semi, rule))
					}
				}
			})
		}
		for _, rule := range prog.perGroup {
			if groupEvals[rule] == 0 {
				t.Errorf("%s: %s re-collected no single group, want some", prog.name, rule)
			}
		}
		for rule := range prog.wholeRule {
			if n := groupEvals[rule]; n != 0 {
				t.Errorf("%s: %s re-collected %d single groups, want all groups every time", prog.name, rule, n)
			}
		}
	}
}

// TestVisitDifferential is the oracle for what a step visits: the two
// programs of the differential pool written for it, over seeded 16-step
// streams through differentialRun's two evaluators. Naive evaluation
// runs every rule of a stratum on every step; semi-naive enters the
// rules a trigger list reaches. The inspections pin that the streams
// went where the shortcuts are: rules were reached through their
// constant and turned away without being entered, and rows left index
// buckets long enough to be found by slot, which later shrank again.
func TestVisitDifferential(t *testing.T) {
	var entered, fired map[string]int64
	tracked, shrankBack := 0, 0
	inspect := map[string]func(semi *Runtime){
		"dispatch-constants": func(semi *Runtime) {
			for _, cr := range semi.cat.rules {
				entered[cr.name] += cr.stats.evals
				fired[cr.name] += cr.stats.fires
			}
			for rule, want := range map[string]string{
				"d1": `new req at 0: dispatch: req.Op = "put"`,
				"d6": `new req at 1: dispatch: req.Op = "get"`,
				"d7": `new req at 0: dispatch: none (constant on req.K; req tuples are dispatched on req.Op)`,
				"d9": `dispatch: req.Op = "put"`,
			} {
				if plan := mustExplain(t, semi, rule); !strings.Contains(plan, want+"\n") {
					t.Fatalf("%s: want %q in\n%s", rule, want, plan)
				}
			}
		},
		"low-cardinality-delete": func(semi *Runtime) {
			item := semi.Table("item")
			ix := item.ensureIndex([]int{1})
			if ix.pos == nil {
				return
			}
			tracked++
			if len(item.Match([]int{1}, []Value{Int(0)})) <= posMapMin && len(item.Match([]int{1}, []Value{Int(1)})) <= posMapMin {
				shrankBack++
			}
		},
	}
	for name, look := range inspect {
		entered, fired = map[string]int64{}, map[string]int64{}
		for seed := int64(1); seed <= 25; seed++ {
			differentialRun(t, diffProgramNamed(name), seed, 16, look)
		}
		if name != "dispatch-constants" {
			continue
		}
		for _, rule := range []string{"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d9", "d10"} {
			if fired[rule] == 0 {
				t.Errorf("%s never fired", rule)
			}
		}
		if entered["d8"] != 0 {
			t.Errorf("d8, whose constant no tuple carries, was entered %d times", entered["d8"])
		}
		if entered["d5"] <= entered["d1"] || entered["d5"] <= entered["d3"] {
			t.Errorf("d5 (no constant) entered %d times, d1 %d, d3 %d: want a step without a put or a get to skip those", entered["d5"], entered["d1"], entered["d3"])
		}
	}
	if tracked == 0 || shrankBack == 0 {
		t.Errorf("of 25 streams %d removed a row from a bucket past %d rows, and %d of those ended with both buckets back under it; want some of each",
			tracked, posMapMin, shrankBack)
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

// stripJoinAlternatives takes every alternative join order back out of
// an installed runtime's delta variants, leaving each to full-scan its
// generator as it did before planAlternative: the reference for "with
// and without the alternative".
func stripJoinAlternatives(rt *Runtime) {
	for _, cr := range rt.cat.rules {
		for _, v := range cr.deltaVariants {
			if v != nil {
				v.alt = nil
			}
		}
	}
}

// TestJoinAlternativeDifferential is the oracle for alternative join
// orders: generator-join over 25 seeded 12-step streams, naive against
// semi-naive, and semi-naive with its alternatives against semi-naive
// without them, which must agree on every table after every step and on
// the error of a step that raises. The inspection pins that the streams
// ran each alternative and each generator scan it replaces: the table
// sizes crossed len(Q) < len(G) both ways. Some streams reach the
// raising condition and some do not.
func TestJoinAlternativeDifferential(t *testing.T) {
	prog := diffProgramNamed("generator-join")
	type order struct {
		name         string
		variant, alt *bodyOp
	}
	var orders []order
	took, kept := map[string]int{}, map[string]int{}
	raised := 0
	for seed := int64(1); seed <= 25; seed++ {
		differentialRun(t, prog, seed, 12, func(*Runtime) {})
		with, without := NewRuntime("n1"), NewRuntime("n1")
		mustInstall(t, with, prog.src)
		mustInstall(t, without, prog.src)
		stripJoinAlternatives(without)
		// A scan op's memo says whether it probed since it was cleared: the
		// variant's generator in today's order, or the atom moved ahead of
		// it in the alternative.
		orders = orders[:0]
		for _, cr := range with.cat.rules {
			for i, v := range cr.deltaVariants {
				if v != nil && v.alt != nil {
					name := fmt.Sprintf("%s new %s", cr.name, cr.body[cr.scanPositions[i]].table)
					orders = append(orders, order{name: name, variant: v.body[v.altAt], alt: v.alt.body[v.altAt]})
				}
			}
		}
		if len(orders) != 9 {
			t.Fatalf("%d delta variants with an alternative, want 9: %v", len(orders), orders)
		}
		observe := func() {
			for _, o := range orders {
				if o.variant.memoOK {
					kept[o.name]++
				}
				if o.alt.memoOK {
					took[o.name]++
				}
				o.variant.memoOK, o.alt.memoOK = false, false
			}
		}
		if lockstep(t, prog, seed, 12, [2]string{"with alternatives", "without"}, with, without, observe) != 0 {
			raised++
		}
	}
	for _, o := range orders {
		if took[o.name] == 0 || kept[o.name] == 0 {
			t.Errorf("%s: the alternative ran in %d steps and the generator scan in %d; want both", o.name, took[o.name], kept[o.name])
		}
	}
	t.Logf("alternative taken in %v steps, generator scanned in %v; %d of 25 streams raised", took, kept, raised)
	if raised == 0 || raised == 25 {
		t.Errorf("%d of 25 streams reached the raising condition; want some, not all", raised)
	}
}

// TestCoercingConstantDifferential: a frontier tuple is held to an
// atom's constants the way an index probe holds a stored row, by
// encoding: 1.0 does not match an int 1 in an any column, nor -0.0 a
// stored 0.0, whichever of naive and semi-naive evaluation looks.
func TestCoercingConstantDifferential(t *testing.T) {
	prog := diffProgramNamed("coercing-constants")
	for _, opts := range [][]Option{nil, {WithNaiveEval()}} {
		rt := NewRuntime("n1", opts...)
		mustInstall(t, rt, prog.src)
		if _, err := rt.Step(1, []Tuple{NewTuple("t", Int(1), Int(1)), NewTuple("f", Int(2), Float(0))}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Table("hit").Dump() + rt.Table("zhit").Dump(); got != "" {
			t.Errorf("naive=%v: derived %s", rt.naiveEval, got)
		}
	}
	hits := 0
	for seed := int64(1); seed <= 25; seed++ {
		differentialRun(t, prog, seed, 8, func(semi *Runtime) {
			hits += semi.Table("hit").Len() + semi.Table("zhit").Len()
		})
	}
	if hits == 0 {
		t.Fatal("no stream derived a hit: the constants never matched")
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
	cp1 := ruleNamed(rt, "cp1")
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

// multiJoinProgram and multiJoinFacts are evalbench's join workload
// (internal/evalbench imports this package, so its tests cannot import
// evalbench back).
const multiJoinProgram = `
	table r(A: int, B: int) keys(0,1);
	table s(B: int, C: int) keys(0,1);
	table u(C: int, D: int) keys(0,1);
	table q(A: int, D: int) keys(0,1);
	j1 q(A, D) :- r(A, B), s(B, C), u(C, D), A != D;
`

func multiJoinFacts() []Tuple {
	var facts []Tuple
	for i := int64(0); i < 400; i++ {
		facts = append(facts, NewTuple("r", Int(i), Int(i%40)), NewTuple("s", Int(i%40), Int(i%20)),
			NewTuple("u", Int(i%20), Int(i)))
	}
	return facts
}

// TestGeneratorJoinVisitsFewRows is the visit-count guard of alternative
// join orders: the step that loads the join program's 1 200 facts hands
// its scan ops at least 5x fewer candidate rows than the same step
// without alternatives. There, j1's new-u variant full-scans r (400
// rows) for each of 400 frontier tuples, to probe s with every row:
// 160 000 of ~185 000 candidates. Its alternative probes s (40 rows) by
// C, then r by B.
func TestGeneratorJoinVisitsFewRows(t *testing.T) {
	run := func(strip bool) *Runtime {
		rt := NewRuntime("n1")
		mustInstall(t, rt, multiJoinProgram)
		if strip {
			stripJoinAlternatives(rt)
		}
		if _, err := rt.Step(1, multiJoinFacts()); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	with, without := run(false), run(true)
	if a, b := dumpAll(with), dumpAll(without); a != b {
		t.Fatalf("the alternative changed the fixpoint:\n%s\nvs\n%s", a, b)
	}
	if p := with.RuleProfiles()[0]; p.AltEvals != 1 {
		t.Fatalf("j1 took the alternative in %d of %d evaluations, want 1 (new u)", p.AltEvals, p.Evals)
	}
	if with.scanRows*5 > without.scanRows {
		t.Fatalf("one step handed scan ops %d candidate rows, %d without the alternative: want at least 5x fewer",
			with.scanRows, without.scanRows)
	}
	t.Logf("%d candidate rows, %d without the alternative", with.scanRows, without.scanRows)
}

// adoptProgram is paxos' ad1 over its tables (commands as ints). Its
// cur_ballot-first variant full-scans adopt_max, which the
// promise_acc_store atom that follows could key by ballot.
const adoptProgram = `
	table is_leader(K: string, V: bool) keys(0);
	table adopt_max(Slot: int, AB: int) keys(0);
	table cur_ballot(K: string, B: int) keys(0);
	table promise_acc_store(Bal: int, Slot: int, AccBal: int, Cmd: int, From: int) keys(0,1,4);
	table decided(Slot: int, Cmd: int) keys(0);
	table propose_internal(S: int, Cmd: int) keys(0,1);
	ad1 propose_internal(S, Cmd) :- is_leader("l", true), adopt_max(S, AB),
	        cur_ballot("b", B), promise_acc_store(B, S, AB, Cmd, _), notin decided(S, _);
`

func hasIndex(t *Table, cols ...int) bool {
	for _, ix := range t.ixAll {
		if colsEqual(ix.cols, cols) {
			return true
		}
	}
	return false
}

// TestSmallerGeneratorVisitsInTextualOrder is the guard of the size test
// on ad1's shape: adopt_max holds one row per slot and promise_acc_store
// one per acceptor too, so a new ballot scans adopt_max in textual
// order, in today's emission order, and never builds the ballot index
// the alternative would probe. Once adopt_max outgrows the promises, the
// next ballot takes the alternative.
func TestSmallerGeneratorVisitsInTextualOrder(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, adoptProgram)
	const alt = "      alternative when len(promise_acc_store) < len(adopt_max): " +
		"promise_acc_store via index [0], adopt_max via index [0 1]\n"
	if plan := mustExplain(t, rt, "ad1"); !strings.Contains(plan, "    new cur_ballot:\n") || !strings.Contains(plan, alt) {
		t.Fatalf("fixture lost its shape: want the cur_ballot-first variant with %q in\n%s", alt, plan)
	}
	pas := rt.Table("promise_acc_store")
	load := []Tuple{NewTuple("is_leader", Str("l"), Bool(true))}
	for s := int64(0); s < 20; s++ {
		load = append(load, NewTuple("adopt_max", Int(s), Int(1)))
		for from := int64(0); from < 3; from++ {
			load = append(load, NewTuple("promise_acc_store", Int(1), Int(s), Int(1), Int(s*10), Int(from)))
		}
	}
	ad1 := ruleNamed(rt, "ad1")
	for step, batch := range [][]Tuple{load, {NewTuple("cur_ballot", Str("b"), Int(1))}} {
		if _, err := rt.Step(int64(step+1), batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := rt.Table("propose_internal").Len(); n != 20 {
		t.Fatalf("ad1 proposed %d slots, want 20", n)
	}
	if ad1.stats.altEvals != 0 || hasIndex(pas, 0) {
		t.Fatalf("with %d promises for %d slots, ad1 took the alternative %d times (ballot index built: %v), want 0",
			pas.Len(), rt.Table("adopt_max").Len(), ad1.stats.altEvals, hasIndex(pas, 0))
	}
	var more []Tuple
	for s := int64(20); s < 100; s++ {
		more = append(more, NewTuple("adopt_max", Int(s), Int(1)))
	}
	for step, batch := range [][]Tuple{more, {NewTuple("cur_ballot", Str("b"), Int(2))}} {
		if _, err := rt.Step(int64(step+3), batch); err != nil {
			t.Fatal(err)
		}
	}
	if ad1.stats.altEvals != 1 || !hasIndex(pas, 0) {
		t.Fatalf("with %d promises for %d slots, ad1 took the alternative %d times (ballot index built: %v), want 1",
			pas.Len(), rt.Table("adopt_max").Len(), ad1.stats.altEvals, hasIndex(pas, 0))
	}
}

// fiveStrataProgram is a chain of aggregates, one stratum each, fed by
// e0, beside a rule of stratum 0 (oneStratumProgram) that no other
// stratum reads the output of.
const oneStratumProgram = `
	table zt(X: int) keys(0);
	event z(X: int);
	z0 zt(X % 8) :- z(X);
`

const fiveStrataProgram = oneStratumProgram + `
	table t0(X: int) keys(0);
	table c1(K: string, N: int) keys(0);
	table c2(K: string, N: int) keys(0);
	table c3(K: string, N: int) keys(0);
	table c4(K: string, N: int) keys(0);
	event e0(X: int);
	s0 t0(X) :- e0(X);
	s1 c1("k", count<X>) :- t0(X);
	s2 c2("k", count<N>) :- c1(_, N);
	s3 c3("k", count<N>) :- c2(_, N);
	s4 c4("k", count<N>) :- c3(_, N);
`

// TestIdleStratumVisitsNoRule is the visit-count guard of the trigger
// index: a step whose only input is a table that strata 1 to 4 do not
// read enters no rule of theirs, and in stratum 0 enters the rule that
// scans it and not its neighbour.
func TestIdleStratumVisitsNoRule(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, fiveStrataProgram)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if got := ruleNamed(rt, fmt.Sprintf("s%d", i)).stratum; got != want {
			t.Fatalf("s%d is in stratum %d, want %d", i, got, want)
		}
	}
	for step := int64(1); step <= 3; step++ {
		if _, err := rt.Step(step, []Tuple{NewTuple("e0", Int(step)), NewTuple("z", Int(step))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Table("c4").Dump(); got != `c4("k", 1)` {
		t.Fatalf("the chain derived %q", got)
	}
	evals := func() map[string]int64 {
		out := map[string]int64{}
		for _, p := range rt.RuleProfiles() {
			out[p.Rule] = p.Evals
		}
		return out
	}
	before, strata := evals(), rt.strataRun
	if _, err := rt.Step(4, []Tuple{NewTuple("z", Int(4))}); err != nil {
		t.Fatal(err)
	}
	if n := rt.strataRun - strata; n != 1 {
		t.Errorf("a step carrying one z tuple entered %d strata, want stratum 0 alone", n)
	}
	for rule, n := range evals() {
		want := before[rule]
		if rule == "z0" {
			want++
		}
		if n != want {
			t.Errorf("a step carrying one z tuple took %s from %d evaluations to %d, want %d", rule, before[rule], n, want)
		}
	}
}

// countTasksProgram is boommr's jc1 over a task table fed by an event.
const countTasksProgram = `
	table task(JobId: int, TaskId: int, Type: string, State: string) keys(0,1);
	table job_done_cnt(JobId: int, N: int) keys(0);
	event set_task(JobId: int, TaskId: int, Type: string, State: string);
	st1 task(J, T, Ty, St) :- set_task(J, T, Ty, St);
	jc1 job_done_cnt(J, count<T>) :- task(J, T, _, "done");
`

// loadCountTasks installs countTasksProgram and stores jobs jobs of ten
// tasks each, nine done and the last running, in one step: jc1's first
// evaluation, which materializes every group.
func loadCountTasks(t *testing.T, jobs int) *Runtime {
	t.Helper()
	rt := NewRuntime("n1")
	mustInstall(t, rt, countTasksProgram)
	var tasks []Tuple
	for j := 0; j < jobs; j++ {
		for k := 0; k < 10; k++ {
			state := "done"
			if k == 9 {
				state = "running"
			}
			tasks = append(tasks, NewTuple("task", Int(int64(j)), Int(int64(k)), Str("map"), Str(state)))
		}
	}
	if _, err := rt.Step(1, tasks); err != nil {
		t.Fatal(err)
	}
	if n := rt.Table("job_done_cnt").Len(); n != jobs {
		t.Fatalf("jc1 materialized %d groups, want %d", n, jobs)
	}
	return rt
}

func ruleNamed(rt *Runtime, name string) *compiledRule {
	for _, cr := range rt.cat.rules {
		if cr.name == name {
			return cr
		}
	}
	panic("no rule named " + name)
}

// TestAggregateStepVisitsOneGroup is the visit-count guard for
// group-at-a-time maintenance: with 2000 groups of 10 rows stored, one
// row changing state costs jc1 one head and a look at the rows of that
// row's group, not a recount of all 20000. (Before aggregates were
// maintained per group this was 88 % of mr_sim's rule time.)
func TestAggregateStepVisitsOneGroup(t *testing.T) {
	rt := loadCountTasks(t, 2000)
	jc1 := ruleNamed(rt, "jc1")
	fires := jc1.stats.fires
	if _, err := rt.Step(2, []Tuple{NewTuple("set_task", Int(1234), Int(9), Str("map"), Str("done"))}); err != nil {
		t.Fatal(err)
	}
	if !rt.Table("job_done_cnt").Contains(NewTuple("job_done_cnt", Int(1234), Int(10))) {
		t.Fatalf("job 1234 not recounted:\n%s", rt.Table("job_done_cnt").Dump())
	}
	if n := jc1.stats.fires - fires; n != 1 {
		t.Fatalf("one task changing state derived %d heads, want the 1 of its job", n)
	}
	if n := jc1.stats.groupEvals; n != 1 {
		t.Fatalf("jc1 re-collected %d single groups, want 1", n)
	}
	probe := jc1.group.seeded.body[0]
	if n := len(probe.candBuf); probe.table != "task" || n > 10 {
		t.Fatalf("recounting one job visited %d rows of %s, want the job's 10 of 20000", n, probe.table)
	}
}

// TestAggregateOverSysFire pins when a loss is seen. sys::fire is
// refreshed after a step's strata, each changed count displacing the
// old row, so both the new rows and the displaced ones belong to the
// following step: after step n, a per-group aggregate over sys::fire
// holds the counts as they stood after step n-1, exactly like its twin
// with the plan taken away, which recomputes every group.
func TestAggregateOverSysFire(t *testing.T) {
	const src = `
		table seen(Id: int) keys(0);
		table last(K: string, Id: int) keys(0);
		table fire_of(R: string, N: int) keys(0);
		event ping(Id: int);
		event pong(Id: int);
		s1 seen(Id) :- ping(Id);
		l1 last("l", Id) :- pong(Id);
		f1 fire_of(R, max<C>) :- sys::fire(R, C, _), R != "f1";
	`
	perGroup, whole := NewRuntime("n1"), NewRuntime("n1")
	mustInstall(t, perGroup, src)
	mustInstall(t, whole, src)
	ruleNamed(whole, "f1").group = nil
	r := rand.New(rand.NewSource(1))
	prev := map[string]int64{}
	for step := int64(1); step <= 20; step++ {
		var batch []Tuple
		for i := r.Intn(3); i > 0; i-- {
			batch = append(batch, NewTuple("ping", Int(step*10+int64(i))))
		}
		if r.Intn(2) == 0 {
			batch = append(batch, NewTuple("pong", Int(step)))
		}
		for _, rt := range []*Runtime{perGroup, whole} {
			if _, err := rt.Step(step, cloneBatch(batch)); err != nil {
				t.Fatal(err)
			}
		}
		got := perGroup.Table("fire_of").Dump()
		if want := whole.Table("fire_of").Dump(); got != want {
			t.Fatalf("step %d: per-group\n%s\nwhole-rule\n%s", step, got, want)
		}
		if step > 1 {
			want := fmt.Sprintf("fire_of(\"l1\", %d)\nfire_of(\"s1\", %d)", prev["l1"], prev["s1"])
			if got != want {
				t.Fatalf("step %d: fire_of holds\n%s\nwant the counts after step %d\n%s", step, got, step-1, want)
			}
		}
		prev = firesByRule(perGroup)
	}
	if n := ruleNamed(perGroup, "f1").stats.groupEvals; n == 0 {
		t.Fatal("f1 never re-collected a single group")
	}
	if n := ruleNamed(whole, "f1").stats.groupEvals; n != 0 {
		t.Fatalf("the twin without a plan re-collected %d single groups", n)
	}
}
