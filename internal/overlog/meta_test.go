package overlog

import (
	"slices"
	"strings"
	"testing"
)

// TestSysFireMaintained: sys::fire is materialized only when some rule
// reads it, and then reflects per-rule derivation counts.
func TestSysFireMaintained(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		table hot(Rule: string, N: int) keys(0);
		r1 b(X) :- a(X);
		meta hot(R, N) :- sys::fire(R, N, _), N > 0;
	`)
	rt.Step(1, []Tuple{NewTuple("a", Int(1)), NewTuple("a", Int(2))})
	// sys::fire updates at end of step; the meta rule sees it next step.
	rt.Step(2, []Tuple{NewTuple("a", Int(3))})
	tp, ok := rt.Table("hot").LookupKey(NewTuple("hot", Str("r1"), Int(0)))
	if !ok {
		t.Fatalf("hot empty:\n%s", rt.Table("hot").Dump())
	}
	if tp.Vals[1].AsInt() < 2 {
		t.Fatalf("fire count: %s", tp)
	}
}

// TestSysFireNotMaintainedWithoutReaders: without a reader, sys::fire
// stays empty (no bookkeeping overhead).
func TestSysFireNotMaintainedWithoutReaders(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		r1 b(X) :- a(X);
	`)
	rt.Step(1, []Tuple{NewTuple("a", Int(1))})
	if rt.Table("sys::fire").Len() != 0 {
		t.Fatalf("sys::fire maintained without readers:\n%s", rt.Table("sys::fire").Dump())
	}
}

// TestDeclAndRuleRenderRoundTrip: rendering a parsed program and
// reparsing it yields the same rendering (the pretty-printer emits
// valid, faithful syntax).
func TestDeclAndRuleRenderRoundTrip(t *testing.T) {
	const src = `
		program roundtrip;
		table file(FileId: int, Parent: int, Name: string, IsDir: bool) keys(0);
		event req(Addr: addr, Id: string, L: list);
		r1 file(F, P, N, true) :- req(@A, N, L), F := hash(N), P := 0 - 1, size(L) > 2;
		r2 delete file(F, P, N, D) :- file(F, P, N, D), req(@A, N, _);
		r3 next file(F, P, N, D) :- file(F, P, N, D), req(@A, N, _);
		agg1 file(F, 0, "x", false) :- req(@A, X, L), F := hash(X);
	`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var render func(p *Program) string
	render = func(p *Program) string {
		var b strings.Builder
		for _, d := range p.Tables {
			b.WriteString(d.String() + "\n")
		}
		for _, r := range p.Rules {
			b.WriteString(r.String() + "\n")
		}
		for _, f := range p.Facts {
			b.WriteString(f.String() + "\n")
		}
		return b.String()
	}
	first := render(prog)
	prog2, err := Parse(first)
	if err != nil {
		t.Fatalf("re-parse of rendering failed: %v\n%s", err, first)
	}
	second := render(prog2)
	if first != second {
		t.Fatalf("render not stable:\n--- first\n%s\n--- second\n%s", first, second)
	}
	// The reparsed program must also install cleanly.
	rt := NewRuntime("n1")
	if err := rt.Install(prog2); err != nil {
		t.Fatalf("install of rendered program: %v", err)
	}
}

// TestMultiProgramInstallSharedTables: a later program may read and
// extend relations declared by an earlier one; identical redeclaration
// is tolerated, conflicting redeclaration is rejected.
func TestMultiProgramInstallSharedTables(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		program base;
		table shared(K: string, V: int) keys(0);
	`)
	mustInstall(t, rt, `
		program ext;
		table shared(K: string, V: int) keys(0);
		table doubled(K: string, V: int) keys(0);
		x1 doubled(K, V * 2) :- shared(K, V);
	`)
	rt.Step(1, []Tuple{NewTuple("shared", Str("a"), Int(21))})
	tp, ok := rt.Table("doubled").LookupKey(NewTuple("doubled", Str("a"), Int(0)))
	if !ok || tp.Vals[1].AsInt() != 42 {
		t.Fatalf("cross-program rule: %v %v", ok, tp)
	}
	err := rt.InstallSource(`table shared(K: string) keys(0);`)
	if err == nil || !strings.Contains(err.Error(), "different shape") {
		t.Fatalf("conflicting redecl: %v", err)
	}
}

// TestCatalogRenderedOnlyWhenRead: no rule of the runtime reads a
// catalog relation, so install and ten steps store no catalog rows;
// reading one through Table renders them, under the names the runtime
// gives its rules, and a later install re-renders on the next read.
func TestCatalogRenderedOnlyWhenRead(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		program p;
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		r1 b(X) :- a(X);
		b(X) :- a(X), X > 1;
	`)
	catalogRows := func() (n int) {
		for _, name := range CatalogRelations() {
			n += rt.tables[name].Len()
		}
		return n
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := rt.Step(i, []Tuple{NewTuple("a", Int(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if n := catalogRows(); n != 0 {
		t.Fatalf("%d catalog rows stored with no reader", n)
	}
	stored := rt.stored
	if rt.Table("sys::atom").Len() == 0 {
		t.Fatal("reading sys::atom did not render it")
	}
	if n := catalogRows(); n == 0 || rt.stored != stored+int64(n) {
		t.Fatalf("%d catalog rows, stored %d -> %d", n, stored, rt.stored)
	}
	if got, want := rt.Table("sys::rule").Dump(), `sys::rule(0, 0, "p", "r1", "b", "insert", false, 5, 3)
sys::rule(1, 0, "p", "p_r1", "b", "insert", false, 6, 3)`; got != want {
		t.Fatalf("sys::rule:\n%s\nwant\n%s", got, want)
	}
	if !slices.Equal(rt.Rules(), []string{"r1", "p_r1"}) {
		t.Fatalf("rule names %v", rt.Rules())
	}
	mustInstall(t, rt, `q1 a(X) :- b(X), X > 5;`)
	if n := rt.Table("sys::rule").Len(); n != 3 {
		t.Fatalf("sys::rule holds %d rows after a third rule", n)
	}
}

// TestCatalogRenderedPerRelation: a runtime whose only catalog reader
// is a rule over sys::rule stores sys::rule and nothing else of the
// catalog, through install and steps; reading sys::atom renders it.
func TestCatalogRenderedPerRelation(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		table nrules(K: string, N: int) keys(0);
		r1 b(X) :- a(X);
		r2 nrules("n", count<R>) :- sys::rule(R, _, _, _, _, _, _, _, _);
	`)
	stepN(t, rt, 3)
	if n := rt.tables["sys::rule"].Len(); n != 2 {
		t.Fatalf("sys::rule holds %d rows, want 2", n)
	}
	for _, name := range CatalogRelations() {
		if n := rt.tables[name].Len(); name != "sys::rule" && n != 0 {
			t.Fatalf("%s holds %d rows with no reader", name, n)
		}
	}
	if rt.Table("sys::atom").Len() == 0 {
		t.Fatal("reading sys::atom did not render it")
	}
}

// TestCatalogRenderedForReaders: a rule reading a catalog relation
// renders it at install, and each later install adds its rows.
func TestCatalogRenderedForReaders(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table heads(K: string, N: int) keys(0);
		h1 heads("n", count<H>) :- sys::atom(_, 0, H, _, _, _);
	`)
	if rt.tables["sys::atom"].Len() != 2 {
		t.Fatalf("sys::atom at install:\n%s", rt.tables["sys::atom"].Dump())
	}
	mustInstall(t, rt, `
		table a(X: int);
		a1 a(1) :- heads(_, _);
	`)
	stepN(t, rt, 1)
	if got := rt.Table("heads").Dump(); got != `heads("n", 2)` {
		t.Fatalf("heads: %s", got)
	}
}
