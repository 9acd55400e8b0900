package analysis

import (
	"strings"
	"testing"

	"repro/internal/overlog"
)

// lint runs AnalyzeSource over the sources as one unit with no extra
// options (pragmas in the sources still apply).
func lint(t *testing.T, srcs ...string) []Diagnostic {
	t.Helper()
	return AnalyzeSource("test", srcs, Options{})
}

func codeSet(ds []Diagnostic) map[string]int {
	out := map[string]int{}
	for _, d := range ds {
		out[d.Code]++
	}
	return out
}

// TestLintCodes drives every lint code through at least one firing and
// one non-firing program. TestEveryCodeCovered below cross-checks the
// table against Codes() so a new code cannot ship untested.
func TestLintCodes(t *testing.T) {
	cases := []struct {
		name string
		srcs []string
		want []string // codes that must fire
		not  []string // codes that must not fire
	}{
		{
			name: "dead rule fires on unconsumed local event",
			srcs: []string{`
				//lint:feed in
				event in(A: int);
				event orphan(A: int);
				d1 orphan(A) :- in(A);
			`},
			want: []string{CodeDeadRule},
		},
		{
			name: "dead rule silent when the event is consumed",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				event mid(A: int);
				table out(A: int, B: int) keys(0);
				d1 mid(A) :- in(A);
				d2 out(A, A) :- mid(A);
			`},
			not: []string{CodeDeadRule, CodeWriteOnly, CodeNeverWritten},
		},
		{
			name: "write-only table fires",
			srcs: []string{`
				//lint:feed in
				event in(A: int);
				table sink(A: int, B: int) keys(0);
				w1 sink(A, A) :- in(A);
			`},
			want: []string{CodeWriteOnly},
			not:  []string{CodeDeadRule}, // decl-level finding subsumes the rule
		},
		{
			name: "write-only table silent under an export pragma",
			srcs: []string{`
				//lint:feed in
				//lint:export sink
				event in(A: int);
				table sink(A: int, B: int) keys(0);
				w1 sink(A, A) :- in(A);
			`},
			not: []string{CodeWriteOnly},
		},
		{
			name: "never-written table fires",
			srcs: []string{`
				//lint:export out
				table ghost(A: int, B: int) keys(0);
				table out(A: int, B: int) keys(0);
				n1 out(A, B) :- ghost(A, B);
			`},
			want: []string{CodeNeverWritten, CodeUnreachable},
		},
		{
			name: "never-written silent under a feed pragma",
			srcs: []string{`
				//lint:feed ghost
				//lint:export out
				table ghost(A: int, B: int) keys(0);
				table out(A: int, B: int) keys(0);
				n1 out(A, B) :- ghost(A, B);
			`},
			not: []string{CodeNeverWritten, CodeUnreachable},
		},
		{
			name: "unreachable silent when a fact seeds the table",
			srcs: []string{`
				//lint:export out
				table seeded(A: int, B: int) keys(0);
				table out(A: int, B: int) keys(0);
				seeded(1, 2);
				n1 out(A, B) :- seeded(A, B);
			`},
			not: []string{CodeUnreachable, CodeNeverWritten},
		},
		{
			name: "duplicate label fires across co-installed programs",
			srcs: []string{
				`program p1;
				 //lint:feed in
				 //lint:export out
				 event in(A: int);
				 table out(A: int, B: int) keys(0);
				 r1 out(A, A) :- in(A);`,
				`program p2;
				 //lint:export out2
				 table out2(A: int, B: int) keys(0);
				 r1 out2(A, B) :- out(A, B);`,
			},
			want: []string{CodeDuplicateLabel},
		},
		{
			name: "distinct labels are silent",
			srcs: []string{
				`program p1;
				 //lint:feed in
				 //lint:export out
				 event in(A: int);
				 table out(A: int, B: int) keys(0);
				 r1 out(A, A) :- in(A);`,
				`program p2;
				 //lint:export out2
				 table out2(A: int, B: int) keys(0);
				 r2 out2(A, B) :- out(A, B);`,
			},
			not: []string{CodeDuplicateLabel},
		},
		{
			name: "undeclared table fires",
			srcs: []string{`
				//lint:export out
				table out(A: int, B: int) keys(0);
				u1 out(A, A) :- mystery(A);
			`},
			want: []string{CodeUndeclared},
		},
		{
			name: "builtin-named condition atoms are not undeclared tables",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int, B: int);
				table out(A: int, B: int) keys(0);
				u1 out(A, B) :- in(A, B), member(A, [1, 2, 3]);
			`},
			not: []string{CodeUndeclared},
		},
		{
			name: "type conflict fires when a variable spans classes",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(Name: string, B: int) keys(0);
				t1 out(A, A) :- in(A);
			`},
			want: []string{CodeTypeConflict},
		},
		{
			name: "int/float unify fine (same class)",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(F: float, B: int) keys(0);
				t1 out(A, A) :- in(A);
			`},
			not: []string{CodeTypeConflict},
		},
		{
			name: "cross-kind comparison fires a type conflict",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int, S: string);
				table out(A: int, B: int) keys(0);
				t1 out(A, A) :- in(A, S), A == S;
			`},
			want: []string{CodeTypeConflict},
		},
		{
			name: "const-type fires on a literal in the wrong column",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(A: int, B: int) keys(0);
				c1 out("oops", A) :- in(A);
			`},
			want: []string{CodeConstType},
		},
		{
			name: "const-type silent on a matching literal",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(A: int, B: int) keys(0);
				c1 out(7, A) :- in(A);
			`},
			not: []string{CodeConstType},
		},
		{
			name: "cond-type fires on a non-bool condition",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(A: int, B: int) keys(0);
				c1 out(A, A) :- in(A), A + 1;
			`},
			want: []string{CodeCondType},
		},
		{
			name: "cond-type silent on comparisons and boolean builtins",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int, S: string);
				table out(A: int, B: int) keys(0);
				c1 out(A, A) :- in(A, S), A > 0, startswith(S, "x");
			`},
			not: []string{CodeCondType},
		},
		{
			name: "redundant keys fires when keys cover every column",
			srcs: []string{`
				//lint:feed in
				//lint:export all
				event in(A: int);
				table all(A: int, B: int) keys(0, 1);
				k1 all(A, A) :- in(A);
			`},
			want: []string{CodeRedundantKeys},
		},
		{
			name: "proper key subset is silent",
			srcs: []string{`
				//lint:feed in
				//lint:export all
				event in(A: int);
				table all(A: int, B: int) keys(0);
				k1 all(A, A) :- in(A);
			`},
			not: []string{CodeRedundantKeys},
		},
		{
			name: "singleton variable fires",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int, B: int);
				table out(A: int, B: int) keys(0);
				s1 out(A, A) :- in(A, Lonely);
			`},
			want: []string{CodeSingletonVar},
		},
		{
			name: "location-only singleton is exempt",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(M: addr, A: int);
				table out(A: int, B: int) keys(0);
				s1 out(A, A) :- in(@M, A);
			`},
			not: []string{CodeSingletonVar},
		},
		{
			name: "unused assignment fires",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(A: int, B: int) keys(0);
				a1 out(A, A) :- in(A), Unused := A * 2;
			`},
			want: []string{CodeUnusedAssign},
			not:  []string{CodeSingletonVar}, // reported as unused, not singleton
		},
		{
			name: "used assignment is silent",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(A: int, B: int) keys(0);
				a1 out(A, Twice) :- in(A), Twice := A * 2;
			`},
			not: []string{CodeUnusedAssign},
		},
		{
			name: "confusable variables fire",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int, B: int);
				table out(A: int, B: int) keys(0);
				v1 out(Val, VAL) :- in(Val, VAL);
			`},
			want: []string{CodeConfusableVar},
		},
		{
			name: "distinct variable names are silent",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int, B: int);
				table out(A: int, B: int) keys(0);
				v1 out(Val, Other) :- in(Val, Other);
			`},
			not: []string{CodeConfusableVar},
		},
		{
			name: "unhandled remote fires when nothing reads the sent event",
			srcs: []string{`
				//lint:feed peer
				table peer(P: addr) keys(0);
				event shout(To: addr, N: int);
				periodic tick interval 100;
				u1 shout(@P, 1) :- tick(_, _), peer(P);
			`},
			want: []string{CodeUnhandledRemote},
		},
		{
			name: "no-ack fires when the handler chain never replies",
			srcs: []string{`
				//lint:feed peer store
				table peer(P: addr) keys(0);
				table store(C: int, B: int) keys(0);
				event drop_cmd(To: addr, C: int);
				periodic tick interval 100;
				g1 drop_cmd(@P, 1) :- tick(_, _), peer(P);
				g2 delete store(C, B) :- drop_cmd(@N, C), store(C, B);
			`},
			want: []string{CodeNoAckRemote},
			not:  []string{CodeUnhandledRemote},
		},
		{
			name: "no-ack silent when a reply is derived transitively",
			srcs: []string{`
				//lint:feed peer
				table peer(P: addr) keys(0);
				table got(C: int, T: int) keys(0);
				event ask(To: addr, From: addr, C: int);
				event answer(To: addr, C: int);
				periodic tick interval 100;
				q1 ask(@P, Me, 1) :- tick(_, _), peer(P), Me := localaddr();
				q2 got(C, now()) :- ask(@N, F, C);
				q3 answer(@F, C) :- ask(@N, F, C), got(C, _);
				q4 got(C, 0) :- answer(@Me, C);
			`},
			not: []string{CodeNoAckRemote, CodeUnhandledRemote},
		},
		{
			name: "event-persist fires on an append-only table",
			srcs: []string{`
				//lint:feed in
				//lint:export log
				event in(A: int);
				table log(A: int);
				e1 log(A) :- in(A);
			`},
			want: []string{CodeEventPersist},
		},
		{
			name: "event-persist silent when a delete rule bounds the table",
			srcs: []string{`
				//lint:feed in gc
				//lint:export log
				event in(A: int);
				event gc(A: int);
				table log(A: int);
				e1 log(A) :- in(A);
				e2 delete log(A) :- gc(A), log(A);
			`},
			not: []string{CodeEventPersist},
		},
		{
			name: "event-persist silent on key-replacing tables",
			srcs: []string{`
				//lint:feed in
				//lint:export log
				event in(A: int);
				table log(A: int, T: int) keys(0);
				e1 log(A, now()) :- in(A);
			`},
			not: []string{CodeEventPersist},
		},
		{
			name: "point-of-order fires on non-monotone rules",
			srcs: []string{`
				//lint:feed in
				//lint:export cnt
				event in(A: int);
				table log(A: int);
				table cnt(K: string, N: int) keys(0);
				m1 log(A) :- in(A);
				m2 cnt("n", count<A>) :- log(A);
			`},
			want: []string{CodePointOfOrder},
		},
		{
			name: "monotone programs have no points of order",
			srcs: []string{`
				//lint:feed in
				//lint:export out
				event in(A: int);
				table out(A: int);
				m1 out(A) :- in(A);
			`},
			not: []string{CodePointOfOrder},
		},
		{
			name: "under-coordinated-path fires on aggregation over async delivery",
			srcs: []string{`
				//lint:feed task
				//lint:export tally
				table task(Id: int, Coord: addr);
				table vote(Node: addr, Id: int);
				table tally(N: int) keys(0);
				cast vote(@Coord, Id) :- task(Id, Coord);
				count tally(count<Id>) :- vote(_, Id);
			`},
			want: []string{CodeCoordPath},
		},
		{
			name: "under-coordinated-path silent when the channel is sealed",
			srcs: []string{`
				//lint:feed task
				//lint:export tally
				//lint:ordered vote per-sender sequence numbers make delivery order deterministic
				table task(Id: int, Coord: addr);
				table vote(Node: addr, Id: int);
				table tally(N: int) keys(0);
				cast vote(@Coord, Id) :- task(Id, Coord);
				count tally(count<Id>) :- vote(_, Id);
			`},
			not: []string{CodeCoordPath, CodeStaleOrdered},
		},
		{
			name: "stale-ordered fires when the seal excuses no async path",
			srcs: []string{`
				//lint:feed obs
				//lint:export tally
				//lint:ordered obs nothing sends into obs remotely
				table obs(Id: int);
				table tally(N: int) keys(0);
				count tally(count<Id>) :- obs(Id);
			`},
			want: []string{CodeStaleOrdered},
		},
		{
			name: "parse failure becomes a diagnostic",
			srcs: []string{`this is not overlog at all (`},
			want: []string{CodeParse},
		},
		{
			name: "ignore pragma drops a code",
			srcs: []string{`
				//lint:feed in
				//lint:ignore write-only-table
				event in(A: int);
				table sink(A: int, B: int) keys(0);
				w1 sink(A, A) :- in(A);
			`},
			not: []string{CodeWriteOnly},
		},
	}

	fired := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := lint(t, tc.srcs...)
			got := codeSet(ds)
			for _, w := range tc.want {
				fired[w] = true
				if got[w] == 0 {
					t.Errorf("want code %s, got diagnostics: %v", w, ds)
				}
			}
			for _, n := range tc.not {
				if got[n] != 0 {
					t.Errorf("code %s should not fire, got diagnostics: %v", n, ds)
				}
			}
		})
	}

	// The install code only fires through InstallCheck; mark it from
	// its dedicated test below.
	fired[CodeInstall] = true
	t.Run("every code has a firing case", func(t *testing.T) {
		for _, c := range Codes() {
			if !fired[c] {
				t.Errorf("lint code %s has no firing test case", c)
			}
		}
	})
}

func TestInstallCheck(t *testing.T) {
	// Good group: installs cleanly.
	good := `
		table t(A: int, B: int) keys(0);
		t(1, 2);
	`
	// Bad group: rule over an undeclared table fails the compiler.
	bad := `r1 nope(A) :- missing(A);`
	ds := InstallCheck("u", map[string][]string{"good": {good}, "bad": {bad}})
	got := codeSet(ds)
	if got[CodeInstall] == 0 {
		t.Fatalf("want an install diagnostic, got %v", ds)
	}
	for _, d := range ds {
		if d.Severity != SevError {
			t.Errorf("install diagnostics must be errors, got %v", d)
		}
	}
	if ds := InstallCheck("u", map[string][]string{"good": {good}}); len(ds) != 0 {
		t.Fatalf("clean group produced diagnostics: %v", ds)
	}
}

func TestRunChecksLabelsPerGroup(t *testing.T) {
	// The same label on two node roles is fine (they never share a
	// runtime)...
	a := `program a;
		//lint:feed in
		//lint:export outa
		event in(A: int);
		table outa(A: int, B: int) keys(0);
		x1 outa(A, A) :- in(A);`
	b := `program b;
		//lint:feed in2
		//lint:export outb
		event in2(A: int);
		table outb(A: int, B: int) keys(0);
		x1 outb(A, A) :- in2(A);`
	u := Unit{Name: "u", Groups: map[string][]string{"role-a": {a}, "role-b": {b}}}
	for _, d := range Run(u, Options{}) {
		if d.Code == CodeDuplicateLabel {
			t.Fatalf("cross-role label collision should not fire: %v", d)
		}
	}

	// ...but within one co-installed group it collides.
	u2 := Unit{Name: "u", Groups: map[string][]string{"role": {a, strings.ReplaceAll(b, "in2(A)", "in2(A)")}}}
	found := false
	for _, d := range Run(u2, Options{}) {
		if d.Code == CodeDuplicateLabel {
			found = true
		}
	}
	if !found {
		t.Fatal("co-installed label collision did not fire")
	}
}

func TestUnitAllSourcesDedups(t *testing.T) {
	shared := "table t(A: int, B: int) keys(0);"
	u := Unit{Name: "u", Groups: map[string][]string{
		"a": {shared, "t(1, 2);"},
		"b": {shared},
	}}
	srcs := u.AllSources()
	if len(srcs) != 2 {
		t.Fatalf("want 2 deduplicated sources, got %d: %q", len(srcs), srcs)
	}
}

func TestSelfLintPopulatesSysLint(t *testing.T) {
	rt := overlog.NewRuntime("lint-test")
	src := `
		program live;
		table sink(A: int, B: int) keys(0);
		event in(A: int);
		w1 sink(A, A) :- in(A);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	ds := SelfLint(rt)
	// sink is written but unread: write-only-table must fire even with
	// events assumed external.
	if got := codeSet(ds); got[CodeWriteOnly] == 0 {
		t.Fatalf("want write-only-table from live catalog, got %v", ds)
	}
	tbl := rt.Table("sys::lint")
	if tbl == nil {
		t.Fatal("sys::lint not declared")
	}
	if tbl.Len() != len(ds) {
		t.Fatalf("sys::lint has %d rows, want %d", tbl.Len(), len(ds))
	}
	// Idempotent: a second run must not accumulate.
	SelfLint(rt)
	if tbl.Len() != len(ds) {
		t.Fatalf("sys::lint not idempotent: %d rows after rerun, want %d", tbl.Len(), len(ds))
	}
}

func TestSelfLintAssumesExternalEvents(t *testing.T) {
	rt := overlog.NewRuntime("lint-test2")
	// A single node's half of a protocol: an event handled locally and
	// an event raised remotely. Neither is a finding on a live node.
	src := `
		program half;
		table peer(P: addr) keys(0);
		peer("other:1");
		event ask(To: addr, N: int);
		event tell(To: addr, N: int);
		periodic tick interval 100;
		h1 tell(@P, N) :- ask(@Me, N), peer(P);
		h2 tell(@P, 1) :- tick(_, _), peer(P);
	`
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	for _, d := range SelfLint(rt) {
		switch d.Code {
		case CodeNeverWritten, CodeUnhandledRemote, CodeDeadRule, CodeUnreachable:
			t.Errorf("live catalog should assume external events, got %v", d)
		}
	}
}

func TestDiagnosticStringAndSort(t *testing.T) {
	ds := lint(t, `
		//lint:feed in
		event in(A: int);
		table sink(A: int, B: int) keys(0);

		w1 sink(A,
		        Lonely) :- in(A);
	`)
	got := codeSet(ds)
	if got[CodeWriteOnly] == 0 || got[CodeSingletonVar] == 0 {
		t.Fatalf("expected write-only-table and singleton-var, got %v", ds)
	}
	for _, d := range ds {
		if d.Code != CodeSingletonVar {
			continue
		}
		if d.Line == 0 {
			t.Errorf("singleton diagnostic has no line: %+v", d)
		}
		s := d.String()
		if !strings.Contains(s, "[singleton-var]") || !strings.Contains(s, "warn") {
			t.Errorf("String() missing code or severity: %q", s)
		}
	}
	// Sort puts higher severities first.
	if !sortedBySeverity(ds) {
		t.Errorf("diagnostics not sorted by severity: %v", ds)
	}
}

func sortedBySeverity(ds []Diagnostic) bool {
	for i := 1; i < len(ds); i++ {
		if ds[i].Severity > ds[i-1].Severity {
			return false
		}
	}
	return true
}

func TestParseSeverity(t *testing.T) {
	for s, want := range map[string]Severity{
		"info": SevInfo, "warn": SevWarn, "warning": SevWarn, "error": SevError,
	} {
		got, ok := ParseSeverity(s)
		if !ok || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseSeverity("fatal"); ok {
		t.Error("ParseSeverity accepted an unknown severity")
	}
}

func TestMaxSeverity(t *testing.T) {
	if _, any := MaxSeverity(nil); any {
		t.Error("MaxSeverity(nil) reported a severity")
	}
	max, any := MaxSeverity([]Diagnostic{{Severity: SevInfo}, {Severity: SevError}})
	if !any || max != SevError {
		t.Errorf("MaxSeverity = %v, %v", max, any)
	}
}

// TestInputIsTheCatalogSchema: analysis.olg declares its input
// relations as a runtime declares its sys:: catalog, so a rule over one
// reads the other unchanged.
func TestInputIsTheCatalogSchema(t *testing.T) {
	decls := map[string]string{}
	for _, d := range rules().Tables {
		decls[d.Name] = d.String()
	}
	for _, d := range overlog.Schema() {
		if got := decls[d.Name]; got != d.String() {
			t.Errorf("analysis.olg declares %q, the catalog %q", got, d.String())
		}
	}
}
