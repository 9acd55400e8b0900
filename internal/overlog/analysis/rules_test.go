package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/overlog"
)

func parse(t *testing.T, src string) []*overlog.Program {
	t.Helper()
	p, err := overlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return []*overlog.Program{p}
}

// pointsOfOrder lints src alone and returns its point-of-order findings
// by rule name.
func pointsOfOrder(t *testing.T, src string) map[string]Diagnostic {
	t.Helper()
	out := map[string]Diagnostic{}
	for _, d := range lint(t, src) {
		if d.Code == CodePointOfOrder {
			out[d.Rule] = d
		}
	}
	return out
}

func TestCALMMonotoneProgram(t *testing.T) {
	src := `
		table edge(A: int, B: int) keys(0,1);
		table reach(A: int, B: int) keys(0,1);
		r1 reach(A, B) :- edge(A, B);
		r2 reach(A, C) :- edge(A, B), reach(B, C);
	`
	if poo := pointsOfOrder(t, src); len(poo) != 0 {
		t.Fatalf("monotone program flagged: %v", poo)
	}
	prog := parse(t, src)
	if rep := CALM(prog); !strings.Contains(rep, "2 rules, 2 monotone") || !strings.Contains(rep, "without coordination") {
		t.Fatalf("report:\n%s", rep)
	}
}

// Silencing point-of-order hides the findings, not the need for
// coordination: the CALM summary still counts the rule.
func TestCALMCountsIgnoredPointsOfOrder(t *testing.T) {
	prog := parse(t, `//lint:ignore point-of-order
		table kv(K: string, V: int) keys(0);
		event bump(K: string);
		up next kv(K, V + 1) :- bump(K), kv(K, V);`)
	if rep := CALM(prog); !strings.Contains(rep, "1 rules, 0 monotone") || !strings.Contains(rep, "key-replacing update of kv") {
		t.Fatalf("report:\n%s", rep)
	}
}

func TestCALMFlagsNonMonotoneConstructs(t *testing.T) {
	poo := pointsOfOrder(t, `
		table kv(K: string, V: int) keys(0);
		table seen(K: string) keys(0);
		table cnt(K: string, N: int) keys(0);
		event bump(K: string);
		up next kv(K, V + 1) :- bump(K), kv(K, V);
		neg seen(K) :- bump(K), notin kv(K, _);
		agg cnt("n", count<K>) :- kv(K, _);
		del delete kv(K, V) :- bump(K), kv(K, V);
		two seen(K) :- bump(K), notin kv(K, _), notin cnt(K, _);
	`)
	for rule, want := range map[string]string{
		"up":  "(key-replacing update of kv)",
		"neg": "(negation over kv)",
		"agg": "(aggregation; key-replacing update of cnt)",
		"del": "(deletion; key-replacing update of kv)",
		// Negations are listed in body order, not by table name.
		"two": "(negation over kv; negation over cnt)",
	} {
		if d, ok := poo[rule]; !ok || !strings.Contains(d.Msg, want) {
			t.Errorf("%s: got %q, want reasons %s", rule, d.Msg, want)
		}
	}
	if len(poo) != 5 {
		t.Fatalf("points of order: %v", poo)
	}
}

// A key-replacing head is a point of order only where the rule's own
// program declares the key; the coordination pass reads the unit's
// catalog, so a consumer of async data names the key either way.
func TestCALMKeyDeclaredElsewhere(t *testing.T) {
	proto := `program proto;
		table vote(Node: addr, Id: int);
		table tally(Id: int, N: int) keys(0);
		//lint:export tally`
	rules := `program rules;
		//lint:feed task
		table task(Id: int, Coord: addr);
		cast vote(@Coord, Id) :- task(Id, Coord);
		count tally(Id, count<N>) :- vote(N, Id);`
	var poo, coord string
	for _, d := range lint(t, proto, rules) {
		switch d.Code {
		case CodePointOfOrder:
			poo = d.Msg
		case CodeCoordPath:
			coord = d.Msg
		}
	}
	if !strings.Contains(poo, "(aggregation)") {
		t.Errorf("point-of-order: %q", poo)
	}
	if !strings.Contains(coord, "(aggregation; key-replacing update of tally)") {
		t.Errorf("under-coordinated-path: %q", coord)
	}
}

// TestCALMOnShippedPrograms sanity-checks the classification against
// the real rule shapes: the FS master's recursive path view is keyed,
// so it is a point of order, and so is its validation rule (negation).
func TestCALMOnShippedPrograms(t *testing.T) {
	poo := pointsOfOrder(t, `
		table file(FileId: int, ParentId: int, Name: string, IsDir: bool) keys(0);
		table fqpath(Path: string, FileId: int) keys(0);
		event req(Id: string, Path: string);
		event ok_resp(Id: string);
		fq1 fqpath(P, C) :- file(C, F, N, _), fqpath(PP, F), C != 0, P := PP + "/" + N;
		mk1 ok_resp(Id) :- req(Id, Path), notin fqpath(Path, _);
	`)
	if !strings.Contains(poo["fq1"].Msg, "key-replacing") {
		t.Errorf("fq1: %v", poo["fq1"])
	}
	if !strings.Contains(poo["mk1"].Msg, "negation") {
		t.Errorf("mk1: %v", poo["mk1"])
	}
}

// Every pass names an unlabeled rule as the runtime does,
// <program>_r<i> for the unit's i-th rule from 0, and anchors it at
// its position.
func TestUnlabeledRuleNames(t *testing.T) {
	ds := lint(t, `program p;
		//lint:feed bump
		//lint:export kv
		table kv(K: string, V: int) keys(0);
		event bump(K: string);
		init kv(K, 0) :- bump(K), notin kv(K, _);
		next kv(K, V + 1) :- bump(K), kv(K, V), Lonely := 1;`)
	seen := map[string]bool{}
	for _, d := range ds {
		if d.Rule == "p_r1" && d.Line != 7 {
			t.Errorf("%s anchored at line %d, want 7", d, d.Line)
		}
		seen[d.Code+" "+d.Rule] = true
	}
	for _, want := range []string{"point-of-order p_r1", "unused-assign p_r1", "point-of-order init"} {
		if !seen[want] {
			t.Errorf("no %s finding: %v", want, ds)
		}
	}
}

// TestCALMTaintPropagates: the transitive half of the CALM analysis is
// the coordination pass's taint, which crosses monotone derivations.
func TestCALMTaintPropagates(t *testing.T) {
	ds := lint(t, `
		//lint:feed task
		//lint:export top
		table task(Id: int, Coord: addr);
		table vote(Node: addr, Id: int);
		table mid(Node: addr, Id: int);
		table top(N: int) keys(0);
		cast vote(@Coord, Id) :- task(Id, Coord);
		m1 mid(N, Id) :- vote(N, Id);
		a1 top(count<Id>) :- mid(_, Id);
	`)
	for _, d := range ds {
		if d.Code == CodeCoordPath && d.Rule == "a1" && strings.Contains(d.Msg, "derived (1 steps) from vote") {
			return
		}
	}
	t.Fatalf("taint did not reach a1 through mid: %v", ds)
}

// Nodes sharing a process lint themselves at start, concurrently: each
// Analyze installs the one parsed analysis.olg on its own runtime.
func TestSelfLintConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		rt := overlog.NewRuntime("n")
		if err := rt.InstallSource(`program live;
			table sink(A: int, B: int) keys(0);
			event in(A: int);
			w1 sink(A, A) :- in(A);`); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := codeSet(SelfLint(rt)); got[CodeWriteOnly] != 1 {
				t.Errorf("findings: %v", got)
			}
		}()
	}
	wg.Wait()
}

// A reused runtime analyzes a unit as a fresh one does, whichever
// units it analyzed before: here two units that share a table, one
// sending into it and one not, then each directory's shipped programs,
// in one order and then the other.
func TestReusedRuntimeMatchesFresh(t *testing.T) {
	const decls = `
		table vote(Node: addr, Id: int);
		table top(N: int) keys(0);
		a1 top(count<Id>) :- vote(_, Id);`
	units := map[string][]*overlog.Program{
		"sends": parse(t, decls+`
			//lint:feed task
			table task(Id: int, Coord: addr);
			cast vote(@Coord, Id) :- task(Id, Coord);`),
		"quiet": parse(t, decls),
	}
	names := []string{"sends", "quiet"}
	files, err := filepath.Glob("../../*/*.olg")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(f)
		if units[dir] == nil {
			names = append(names, dir)
		}
		units[dir] = append(units[dir], parse(t, string(src))...)
	}
	backward := slices.Clone(names)
	slices.Reverse(backward)
	rt := newRuntime()
	for _, order := range [][]string{names, backward} {
		for _, name := range order {
			progs := units[name]
			got, _ := evaluate(rt, name, progs, oneGroup(progs), Options{})
			reset(rt)
			want, _ := evaluate(newRuntime(), name, progs, oneGroup(progs), Options{})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: reused runtime found\n%v\nfresh runtime found\n%v", name, got, want)
			}
		}
	}
}
