package overlog

import (
	"fmt"
	"strings"
	"testing"
)

// stepN drives a runtime through n steps at 1ms intervals with no
// external input, collecting all outbound envelopes.
func stepN(t *testing.T, rt *Runtime, n int) []Envelope {
	t.Helper()
	var out []Envelope
	for i := 0; i < n; i++ {
		env, err := rt.Step(int64(i+1), nil)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		out = append(out, env...)
	}
	return out
}

func mustInstall(t *testing.T, rt *Runtime, src string) {
	t.Helper()
	if err := rt.InstallSource(src); err != nil {
		t.Fatalf("install: %v", err)
	}
}

func tableStrings(rt *Runtime, name string) []string {
	tps := rt.Table(name).Tuples()
	out := make([]string, len(tps))
	for i, tp := range tps {
		out[i] = tp.String()
	}
	return out
}

func TestTransitiveClosure(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		program paths;
		table link(Src: string, Dst: string) keys(0,1);
		table reach(Src: string, Dst: string) keys(0,1);
		link("a", "b");
		link("b", "c");
		link("c", "d");
		r1 reach(S, D) :- link(S, D);
		r2 reach(S, D) :- link(S, X), reach(X, D);
	`)
	stepN(t, rt, 1)
	got := rt.Table("reach").Len()
	if got != 6 { // ab ac ad bc bd cd
		t.Fatalf("reach size: got %d want 6\n%s", got, rt.Table("reach").Dump())
	}
}

func TestSemiNaiveAcrossSteps(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table link(Src: string, Dst: string) keys(0,1);
		table reach(Src: string, Dst: string) keys(0,1);
		r1 reach(S, D) :- link(S, D);
		r2 reach(S, D) :- link(S, X), reach(X, D);
	`)
	if _, err := rt.Step(1, []Tuple{NewTuple("link", Str("a"), Str("b"))}); err != nil {
		t.Fatal(err)
	}
	if rt.Table("reach").Len() != 1 {
		t.Fatalf("after step 1: %d", rt.Table("reach").Len())
	}
	// New link arriving later must join against stored reach tuples.
	if _, err := rt.Step(2, []Tuple{NewTuple("link", Str("b"), Str("c"))}); err != nil {
		t.Fatal(err)
	}
	if !rt.Table("reach").Contains(NewTuple("reach", Str("a"), Str("c"))) {
		t.Fatalf("reach(a,c) missing after incremental step:\n%s", rt.Table("reach").Dump())
	}
}

func TestKeyReplacement(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table kv(K: string, V: int) keys(0);
	`)
	rt.Step(1, []Tuple{NewTuple("kv", Str("x"), Int(1))})
	rt.Step(2, []Tuple{NewTuple("kv", Str("x"), Int(2))})
	if rt.Table("kv").Len() != 1 {
		t.Fatalf("kv size: %d", rt.Table("kv").Len())
	}
	tp, _ := rt.Table("kv").LookupKey(NewTuple("kv", Str("x"), Int(0)))
	if tp.Vals[1].AsInt() != 2 {
		t.Fatalf("kv value: %s", tp)
	}
}

func TestEventTablesCleared(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		event ping(N: int);
		table seen(N: int) keys(0);
		r1 seen(N) :- ping(N);
	`)
	rt.Step(1, []Tuple{NewTuple("ping", Int(7))})
	if rt.Table("ping").Len() != 0 {
		t.Fatal("event table not cleared")
	}
	if rt.Table("seen").Len() != 1 {
		t.Fatal("derived table missing event-driven tuple")
	}
}

func TestNegationStratified(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table node(N: string) keys(0);
		table dead(N: string) keys(0);
		table live(N: string) keys(0);
		node("a"); node("b");
		dead("b");
		r1 live(N) :- node(N), notin dead(N);
	`)
	stepN(t, rt, 1)
	got := tableStrings(rt, "live")
	if len(got) != 1 || got[0] != `live("a")` {
		t.Fatalf("live: %v", got)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	rt := NewRuntime("n1")
	err := rt.InstallSource(`
		table p(N: string) keys(0);
		table q(N: string) keys(0);
		r1 p(N) :- q(N);
		r2 q(N) :- p(N), notin p(N);
	`)
	if err == nil || !strings.Contains(err.Error(), "not stratifiable") {
		t.Fatalf("expected stratification error, got %v", err)
	}
}

func TestAggregates(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table obs(Node: string, Val: int) keys(0,1);
		table stats(Node: string, Cnt: int, Sum: int, Min: int, Max: int) keys(0);
		r1 stats(N, count<V>, sum<V>, min<V>, max<V>) :- obs(N, V);
	`)
	rt.Step(1, []Tuple{
		NewTuple("obs", Str("a"), Int(3)),
		NewTuple("obs", Str("a"), Int(5)),
		NewTuple("obs", Str("a"), Int(10)),
		NewTuple("obs", Str("b"), Int(2)),
	})
	tp, ok := rt.Table("stats").LookupKey(NewTuple("stats", Str("a"), Int(0), Int(0), Int(0), Int(0)))
	if !ok {
		t.Fatalf("no stats for a:\n%s", rt.Table("stats").Dump())
	}
	if tp.Vals[1].AsInt() != 3 || tp.Vals[2].AsInt() != 18 || tp.Vals[3].AsInt() != 3 || tp.Vals[4].AsInt() != 10 {
		t.Fatalf("stats wrong: %s", tp)
	}
	// Aggregates refresh when inputs change on a later step.
	rt.Step(2, []Tuple{NewTuple("obs", Str("a"), Int(1))})
	tp, _ = rt.Table("stats").LookupKey(tp)
	if tp.Vals[1].AsInt() != 4 || tp.Vals[3].AsInt() != 1 {
		t.Fatalf("stats not refreshed: %s", tp)
	}
}

func TestAvgAggregate(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table obs(K: string, V: float) keys(0, 1);
		table av(K: string, A: float) keys(0);
		r1 av(K, avg<V>) :- obs(K, V);
	`)
	rt.Step(1, []Tuple{
		NewTuple("obs", Str("x"), Float(1)),
		NewTuple("obs", Str("x"), Float(2)),
	})
	tp, ok := rt.Table("av").LookupKey(NewTuple("av", Str("x"), Float(0)))
	if !ok || tp.Vals[1].AsFloat() != 1.5 {
		t.Fatalf("avg: %v %v", ok, tp)
	}
}

func TestCountWildcard(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table obs(K: string, V: int) keys(0,1);
		table cnt(K: string, N: int) keys(0);
		r1 cnt(K, count<_>) :- obs(K, V);
	`)
	rt.Step(1, []Tuple{
		NewTuple("obs", Str("x"), Int(1)),
		NewTuple("obs", Str("x"), Int(2)),
	})
	tp, ok := rt.Table("cnt").LookupKey(NewTuple("cnt", Str("x"), Int(0)))
	if !ok || tp.Vals[1].AsInt() != 2 {
		t.Fatalf("count<_>: %v %v", ok, tp)
	}
}

func TestDeleteRule(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table file(F: int, Name: string) keys(0);
		event rm(F: int);
		delete file(F, N) :- rm(F), file(F, N);
	`)
	rt.Step(1, []Tuple{NewTuple("file", Int(1), Str("a")), NewTuple("file", Int(2), Str("b"))})
	rt.Step(2, []Tuple{NewTuple("rm", Int(1))})
	got := tableStrings(rt, "file")
	if len(got) != 1 || !strings.Contains(got[0], `"b"`) {
		t.Fatalf("file after delete: %v", got)
	}
}

func TestLocationSpecifierRouting(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		event req(Addr: addr, From: addr, Q: string);
		event resp(Addr: addr, A: string);
		r1 resp(@From, Q) :- req(@Local, From, Q), Local == "n1";
	`)
	out, err := rt.Step(1, []Tuple{NewTuple("req", Addr("n1"), Addr("n2"), Str("hello"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].To != "n2" {
		t.Fatalf("envelopes: %v", out)
	}
	if out[0].Tuple.Table != "resp" || out[0].Tuple.Vals[1].AsString() != "hello" {
		t.Fatalf("payload: %s", out[0].Tuple)
	}
}

func TestLocalLocationInsertsLocally(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		event go(N: int);
		table local(Addr: addr, N: int) keys(0,1);
		r1 local(@A, N) :- go(N), A := localaddr();
	`)
	out, _ := rt.Step(1, []Tuple{NewTuple("go", Int(5))})
	if len(out) != 0 {
		t.Fatalf("expected local insert, got envelopes %v", out)
	}
	if rt.Table("local").Len() != 1 {
		t.Fatal("local tuple missing")
	}
}

func TestPeriodicFiring(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		periodic tick interval 10;
		table count_ticks(K: string, N: int) keys(0);
		r1 count_ticks("t", count<Ord>) :- tick(Ord, _);
	`)
	// Periodics fire on the first step, then every 10ms.
	rt.Step(1, nil)
	rt.Step(5, nil)  // no fire
	rt.Step(11, nil) // fire
	rt.Step(21, nil) // fire
	tp, ok := rt.Table("count_ticks").LookupKey(NewTuple("count_ticks", Str("t"), Int(0)))
	if !ok {
		t.Fatal("no tick count")
	}
	// Aggregates over event tables see only the current step's events;
	// each firing step has exactly 1.
	if tp.Vals[1].AsInt() != 1 {
		t.Fatalf("tick count per step: %s", tp)
	}
	if rt.NextWake() != 31 {
		t.Fatalf("next wake: %d", rt.NextWake())
	}
}

func TestBuiltinsInRules(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		event in(P: string);
		table out(P: string, D: string, B: string, L: int, H: int) keys(0);
		r1 out(P, dirname(P), basename(P), strlen(P), hashmod(P, 4)) :- in(P);
	`)
	rt.Step(1, []Tuple{NewTuple("in", Str("/a/b/c.txt"))})
	tp := rt.Table("out").Tuples()[0]
	if tp.Vals[1].AsString() != "/a/b" || tp.Vals[2].AsString() != "c.txt" || tp.Vals[3].AsInt() != 10 {
		t.Fatalf("builtins: %s", tp)
	}
	h := tp.Vals[4].AsInt()
	if h < 0 || h > 3 {
		t.Fatalf("hashmod out of range: %d", h)
	}
}

func TestSelfJoinRepeatedVariable(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table e(A: string, B: string) keys(0,1);
		table loopy(A: string) keys(0);
		e("x", "x");
		e("x", "y");
		r1 loopy(A) :- e(A, A);
	`)
	stepN(t, rt, 1)
	got := tableStrings(rt, "loopy")
	if len(got) != 1 || got[0] != `loopy("x")` {
		t.Fatalf("loopy: %v", got)
	}
}

func TestJoinOnSharedVariable(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int, Y: int) keys(0,1);
		table b(Y: int, Z: int) keys(0,1);
		table j(X: int, Z: int) keys(0,1);
		a(1, 10); a(2, 20);
		b(10, 100); b(20, 200); b(30, 300);
		r1 j(X, Z) :- a(X, Y), b(Y, Z);
	`)
	stepN(t, rt, 1)
	got := tableStrings(rt, "j")
	if len(got) != 2 {
		t.Fatalf("join results: %v", got)
	}
}

func TestUnsafeRulesRejected(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`table p(A: int) keys(0); table q(A: int) keys(0);
		  r1 p(B) :- q(A);`, "unbound"},
		{`table p(A: int) keys(0); table q(A: int) keys(0); table d(A: int) keys(0);
		  r1 p(A) :- q(A), notin d(B);`, "unsafe"},
		{`table p(A: int) keys(0); table q(A: int) keys(0);
		  r1 p(A) :- q(A), B > 2;`, "unsafe"},
		{`table p(A: int) keys(0); table q(A: int) keys(0);
		  r1 p(A) :- q(A), A := A + 1;`, "reassigned"},
		{`table p(A: int) keys(0);
		  r1 p(A) :- missing(A);`, "undeclared"},
		{`table p(A: int) keys(0); table q(A: int, B: int) keys(0);
		  r1 p(A) :- q(A);`, "arity"},
	}
	for i, c := range cases {
		rt := NewRuntime("n1")
		err := rt.InstallSource(c.src)
		if err == nil {
			t.Errorf("case %d: expected error containing %q", i, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("case %d: error %q missing %q", i, err, c.frag)
		}
	}
}

func TestWatchEvents(t *testing.T) {
	rt := NewRuntime("n1")
	var events []WatchEvent
	rt.RegisterWatcher(func(e WatchEvent) { events = append(events, e) })
	mustInstall(t, rt, `
		table kv(K: string, V: int) keys(0);
		watch(kv);
	`)
	rt.Step(1, []Tuple{NewTuple("kv", Str("x"), Int(1))})
	rt.Step(2, []Tuple{NewTuple("kv", Str("x"), Int(2))}) // replacement: delete + insert
	if len(events) != 3 {
		t.Fatalf("watch events: %d (%v)", len(events), events)
	}
	if events[0].Insert != true || events[1].Insert != false || events[2].Insert != true {
		t.Fatalf("event sequence wrong: %v", events)
	}
}

func TestSysCatalogTables(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		program meta;
		table kv(K: string, V: int) keys(0);
		r1 kv(K, V) :- kv(K, V);
	`)
	found := false
	rt.Table("sys::rule").Scan(func(tp Tuple) bool {
		if tp.Vals[3].AsString() == "r1" && tp.Vals[2].AsString() == "meta" {
			found = true
		}
		return true
	})
	if !found {
		t.Fatalf("sys::rule missing r1:\n%s", rt.Table("sys::rule").Dump())
	}
	if got := rt.Table("sys::decl").Dump(); got != `sys::decl("kv", "meta", false, true, false, 2, false, 3, 3)` {
		t.Fatalf("sys::decl:\n%s", got)
	}
}

func TestMetaRuleOverSysCatalog(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table rulecount(K: string, N: int) keys(0);
		table kv(K: string, V: int) keys(0);
		r1 kv(K, V) :- kv(K, V);
		meta rulecount("rules", count<Name>) :- sys::rule(_, _, _, Name, _, _, _, _, _);
	`)
	stepN(t, rt, 1)
	tp, ok := rt.Table("rulecount").LookupKey(NewTuple("rulecount", Str("rules"), Int(0)))
	if !ok || tp.Vals[1].AsInt() != 2 {
		t.Fatalf("rulecount: %v %v", ok, tp)
	}
}

func TestClockMonotonicity(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `table t(A: int) keys(0);`)
	rt.Step(10, nil)
	if _, err := rt.Step(5, nil); err == nil {
		t.Fatal("expected clock error")
	}
}

func TestFactsSeedDeltas(t *testing.T) {
	// A fact loaded at install must drive rules on the first step even
	// though it was inserted before any Step call.
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table base(A: int) keys(0);
		table derived(A: int) keys(0);
		base(42);
		r1 derived(A) :- base(A);
	`)
	stepN(t, rt, 1)
	if rt.Table("derived").Len() != 1 {
		t.Fatal("fact did not drive derivation")
	}
}

func TestInstallIncremental(t *testing.T) {
	// Rules installed later must see previously stored state.
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table base(A: int) keys(0);
	`)
	rt.Step(1, []Tuple{NewTuple("base", Int(1))})
	mustInstall(t, rt, `
		table derived2(A: int) keys(0);
		r1 derived2(A) :- base(A), A > 0;
	`)
	// Stored tuples are not replayed as deltas automatically; new events
	// still drive the rule.
	rt.Step(2, []Tuple{NewTuple("base", Int(2))})
	if rt.Table("derived2").Len() != 1 {
		t.Fatalf("derived2: %d", rt.Table("derived2").Len())
	}
}

func TestRuleStats(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		r1 b(X) :- a(X);
	`)
	rt.Step(1, []Tuple{NewTuple("a", Int(1)), NewTuple("a", Int(2))})
	if got := firesByRule(rt)["r1"]; got != 2 {
		t.Fatalf("r1 fired %d times, want 2: %+v", got, rt.RuleProfiles())
	}
}

func TestDeepRecursionFixpoint(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table next(A: int, B: int) keys(0,1);
		table reach(A: int) keys(0);
		reach(0);
		r1 reach(B) :- reach(A), next(A, B);
	`)
	var chain []Tuple
	for i := 0; i < 500; i++ {
		chain = append(chain, NewTuple("next", Int(int64(i)), Int(int64(i+1))))
	}
	if _, err := rt.Step(1, chain); err != nil {
		t.Fatal(err)
	}
	if rt.Table("reach").Len() != 501 {
		t.Fatalf("reach: %d", rt.Table("reach").Len())
	}
}

func TestExprErrorsSurface(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		event in(A: int);
		table out(A: int) keys(0);
		r1 out(B) :- in(A), B := A / 0;
	`)
	if _, err := rt.Step(1, []Tuple{NewTuple("in", Int(1))}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division error, got %v", err)
	}
}

func TestTypeCheckingOnInsert(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `table t(A: int, B: string) keys(0);`)
	if _, err := rt.Step(1, []Tuple{NewTuple("t", Str("wrong"), Str("b"))}); err == nil {
		t.Fatal("expected type error")
	}
}

func ExampleRuntime() {
	rt := NewRuntime("example")
	err := rt.InstallSource(`
		table link(Src: string, Dst: string) keys(0,1);
		table reach(Src: string, Dst: string) keys(0,1);
		link("sf", "nyc"); link("nyc", "ldn");
		r1 reach(S, D) :- link(S, D);
		r2 reach(S, D) :- link(S, X), reach(X, D);
	`)
	if err != nil {
		panic(err)
	}
	if _, err := rt.Step(1, nil); err != nil {
		panic(err)
	}
	for _, tp := range rt.Table("reach").Tuples() {
		fmt.Println(tp)
	}
	// Output:
	// reach("nyc", "ldn")
	// reach("sf", "ldn")
	// reach("sf", "nyc")
}

// firesByRule sums RuleProfiles' fire counts by rule name (rules
// sharing a label sum together).
func firesByRule(rt *Runtime) map[string]int64 {
	out := map[string]int64{}
	for _, p := range rt.RuleProfiles() {
		out[p.Rule] += p.Fires
	}
	return out
}
