package overlog

import (
	"strings"
	"testing"
)

func TestExplainRule(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table edge(A: int, B: int) keys(0,1);
		table reach(A: int, B: int) keys(0,1);
		table cnt(K: string, N: int) keys(0);
		event del_req(A: int);
		r1 reach(A, B) :- edge(A, B);
		r2 reach(A, C) :- edge(A, B), reach(B, C);
		r3 cnt("n", count<B>) :- reach(_, B);
		r4 delete edge(A, B) :- del_req(A), edge(A, B);
	`)
	out, err := rt.Explain("r2")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"rule r2", "stratum=0", "head:    reach",
		"scan  edge", "scan  reach", "delta variants"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain(r2) missing %q:\n%s", frag, out)
		}
	}
	out, err = rt.Explain("r3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "aggregate") || !strings.Contains(out, "count@col1") {
		t.Errorf("Explain(r3):\n%s", out)
	}
	out, err = rt.Explain("r4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "delete") {
		t.Errorf("Explain(r4):\n%s", out)
	}
	if _, err := rt.Explain("nope"); err == nil {
		t.Fatal("expected error for unknown rule")
	}
}

// TestExplainAccessPaths: Explain names how each scan finds its rows,
// in the textual plan and in every frontier-first variant — including
// the computed-key probe a := -derived join key gets.
func TestExplainAccessPaths(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, diffProgramNamed("computed-key-delete").src)
	out := mustExplain(t, rt, "cp1")
	for _, frag := range []string{
		"via full scan", "via index [0]", "2 of 2 scans",
		"new decided: textual order", "new pending:", "via delta",
		"via computed-key index [tostr(nth($1, 0))]", "test slot",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain(cp1) missing %q:\n%s", frag, out)
		}
	}
	// The same join against an event table is scanned: it holds one
	// step's tuples, and keying them every step costs more than it saves.
	mustInstall(t, rt, `
		event dec(Slot: int, Cmd: list);
		ev1 delete pending(Id, C2) :- dec(_, Cmd), Id := tostr(nth(Cmd, 0)), pending(Id, C2);
	`)
	if out := mustExplain(t, rt, "ev1"); !strings.Contains(out, "2 of 2 scans") ||
		!strings.Contains(out, "scan  dec                bound=[] bind=[1] filter=[]  via full scan") ||
		strings.Contains(out, "computed-key") {
		t.Errorf("Explain(ev1): want dec scanned in the pending-first variant:\n%s", out)
	}
}

// TestExplainAggregateMode: Explain says how an aggregate rule is
// evaluated once it has run — per group, seeded on which variables and
// through which probes, or whole, and why.
func TestExplainAggregateMode(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, diffProgramNamed("agg-keyed-replace").src)
	mustInstall(t, rt, diffProgramNamed("agg-now").src)
	mustInstall(t, rt, diffProgramNamed("agg-assigned-group").src)
	for rule, frags := range map[string][]string{
		"jc1": {"aggregate: per-group (seeded on J; atoms carrying the group: task)",
			"scan  task               bound=[0 3] bind=[1] filter=[]  via index [0 3]"},
		"pm1": {"aggregate: whole-rule: every input has an atom without the group"},
		"fm1": {"aggregate: whole-rule: calls now()"},
		// The := that binds B is a test once B is seeded, and reading is
		// probed by it.
		"bk1": {"aggregate: per-group (seeded on B, Nm; atoms carrying the group: bucket)",
			"via computed-key index [($1 % 3)]", "test slot 0"},
	} {
		out := mustExplain(t, rt, rule)
		for _, frag := range frags {
			if !strings.Contains(out, frag) {
				t.Errorf("Explain(%s) missing %q:\n%s", rule, frag, out)
			}
		}
	}
}

// TestExplainAlternative: under the delta variant that full-scans a
// generator, Explain prints the alternative join order, with the size
// test that picks it and the access paths of the atom moved ahead of the
// generator and of the generator itself — also when the variant is the
// rule's textual order.
func TestExplainAlternative(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, multiJoinProgram)
	out := mustExplain(t, rt, "j1")
	const newU = "    new u:\n" +
		"      0. scan  u                  bound=[] bind=[0 1] filter=[]  via delta\n" +
		"      1. scan  r                  bound=[] bind=[0 1] filter=[]  via full scan\n" +
		"      2. scan  s                  bound=[0 1] bind=[] filter=[]  via index [0 1]\n" +
		"      3. cond\n" +
		"      alternative when len(s) < len(r): s via index [1], r via index [1]\n"
	if !strings.HasSuffix(out, newU) || strings.Count(out, "alternative when") != 1 {
		t.Errorf("Explain(j1): want new u, and it alone, to end with\n%s\nin\n%s", newU, out)
	}
	mustInstall(t, rt, diffProgramNamed("generator-join").src)
	const textual = "    new u: textual order\n" +
		"      alternative when len(tag) < len(r): tag via index [0 2], r via index [0]\n"
	if out := mustExplain(t, rt, "cq1"); !strings.Contains(out, textual) {
		t.Errorf("Explain(cq1) missing %q:\n%s", textual, out)
	}
}

func TestExplainAllStrata(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		table c(K: string, N: int) keys(0);
		r1 b(X) :- a(X);
		r2 c("n", count<X>) :- b(X);
	`)
	out := rt.ExplainAll()
	if !strings.Contains(out, "stratum 0: r1") || !strings.Contains(out, "stratum 1: r2") {
		t.Fatalf("ExplainAll:\n%s", out)
	}
}

// TestExplainTriggers: Explain says what makes a rule run — per scan
// position the table whose new tuples it joins and the constant they
// are dispatched on, or, for a rule evaluated whole, the tables a
// change to which re-evaluates it.
func TestExplainTriggers(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, diffProgramNamed("dispatch-constants").src)
	for rule, want := range map[string]string{
		"d2": "  triggers:\n    new req at 0: dispatch: req.Op = \"get\"\n    new kv at 1\n  plan",
		"d5": "  triggers:\n    new req at 0\n  plan",
		"d9": "  triggers: a change to req (evaluated whole)\n    dispatch: req.Op = \"put\"\n  plan",
	} {
		if out := mustExplain(t, rt, rule); !strings.Contains(out, want) {
			t.Errorf("Explain(%s) missing %q:\n%s", rule, want, out)
		}
	}
}
