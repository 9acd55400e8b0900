package overlog

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, _, err := lexAll(`foo(Bar, 12, 3.5, "hi\n", @X) :- baz(_), X := Y + 1, A != B; // comment`)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.kind
	}
	want := []tokenKind{
		tokIdent, tokLParen, tokVar, tokComma, tokInt, tokComma, tokFloat,
		tokComma, tokString, tokComma, tokAt, tokVar, tokRParen, tokImplies,
		tokIdent, tokLParen, tokWildcard, tokRParen, tokComma,
		tokVar, tokAssign, tokVar, tokPlus, tokInt, tokComma,
		tokVar, tokNE, tokVar, tokSemi, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count: got %d want %d (%v)", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, kinds[i], want[i])
		}
	}
	if toks[8].sval != "hi\n" {
		t.Errorf("string literal: got %q", toks[8].sval)
	}
}

func TestLexComments(t *testing.T) {
	toks, _, err := lexAll("/* block\ncomment */ foo(X); // line")
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	if toks[0].kind != tokIdent || toks[0].line != 2 {
		t.Errorf("expected ident on line 2, got %v line %d", toks[0], toks[0].line)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		`foo = bar`,
		`foo ! bar`,
		"\"new\nline\"",
		`/* unterminated`,
		`"bad \q escape"`,
	}
	for _, src := range cases {
		if _, _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q): expected error", src)
		}
	}
}

func TestParseTableDecl(t *testing.T) {
	prog, err := Parse(`
		program test;
		table file(FileId: int, Parent: int, Name: string, IsDir: bool) keys(0);
		event request(Addr: addr, Op: string);
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if prog.Name != "test" {
		t.Errorf("program name: %q", prog.Name)
	}
	if len(prog.Tables) != 2 {
		t.Fatalf("tables: %d", len(prog.Tables))
	}
	f := prog.Tables[0]
	if f.Name != "file" || f.Arity() != 4 || len(f.KeyCols) != 1 || f.KeyCols[0] != 0 || f.Event {
		t.Errorf("file decl wrong: %s", f)
	}
	r := prog.Tables[1]
	if !r.Event || r.Cols[0].Type != KindAddr {
		t.Errorf("request decl wrong: %s", r)
	}
}

// TestParseDurable: durable is a contextual modifier after the keys
// clause, rendered back by String (the redeclaration shape check), and
// still a legal table name.
func TestParseDurable(t *testing.T) {
	prog, err := Parse(`
		table decided(Slot: int, Cmd: list) keys(0) durable;
		table durable(N: int) durable;
		durable(1);
		d1 durable(N) :- decided(N, _);
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for i, want := range []string{
		"table decided(Slot: int, Cmd: list) keys(0) durable;",
		"table durable(N: int) durable;",
	} {
		if d := prog.Tables[i]; !d.Durable || d.String() != want {
			t.Errorf("decl %d renders %q (durable %v), want %q", i, d, d.Durable, want)
		}
	}
	if len(prog.Facts) != 1 || prog.Rules[0].Head.Table != "durable" {
		t.Errorf("a table named durable: facts %v, head %q", prog.Facts, prog.Rules[0].Head.Table)
	}
}

func TestParseRule(t *testing.T) {
	prog, err := Parse(`
		table link(Src: string, Dst: string, Cost: int) keys(0,1);
		table path(Src: string, Dst: string, Cost: int) keys(0,1);
		r1 path(S, D, C) :- link(S, D, C);
		r2 path(S, D, C) :- link(S, X, C1), path(X, D, C2), C := C1 + C2, S != D;
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("rules: %d", len(prog.Rules))
	}
	r2 := prog.Rules[1]
	if r2.Name != "r2" {
		t.Errorf("rule name: %q", r2.Name)
	}
	if len(r2.Body) != 4 {
		t.Errorf("body elems: %d", len(r2.Body))
	}
	if r2.Body[2].Kind != BodyAssign || r2.Body[2].Assign != "C" {
		t.Errorf("assignment: %v", r2.Body[2])
	}
	if r2.Body[3].Kind != BodyCond {
		t.Errorf("condition: %v", r2.Body[3])
	}
}

func TestParseAggregateAndNegation(t *testing.T) {
	prog, err := Parse(`
		table hb(Node: string, Time: int) keys(0);
		table cnt(K: string, N: int) keys(0);
		table dead(Node: string) keys(0);
		cnt("all", count<Node>) :- hb(Node, _);
		live(N) :- hb(N, T), notin dead(N), T > 100;
		table live(Node: string) keys(0);
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	agg := prog.Rules[0]
	if !agg.HasAggregate() {
		t.Fatal("expected aggregate head")
	}
	if agg.Head.Terms[1].Agg != AggCount {
		t.Errorf("agg kind: %v", agg.Head.Terms[1].Agg)
	}
	neg := prog.Rules[1]
	if neg.Body[1].Kind != BodyNotin {
		t.Errorf("notin: %v", neg.Body[1])
	}
}

func TestParseDeleteAndLocation(t *testing.T) {
	prog, err := Parse(`
		table file(F: int, N: string) keys(0);
		event rm(F: int);
		event resp(Addr: addr, Ok: bool);
		delete file(F, N) :- rm(F), file(F, N);
		resp(@A, true) :- rm(F), file(F, N), A := "client:1";
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !prog.Rules[0].Delete {
		t.Error("expected delete rule")
	}
	loc := prog.Rules[1].Head.LocIndex()
	if loc != 0 {
		t.Errorf("loc index: %d", loc)
	}
}

func TestParseFactAndPeriodicAndWatch(t *testing.T) {
	prog, err := Parse(`
		table master(Addr: addr) keys(0);
		master("node:0");
		periodic hb interval 500;
		watch(master, "i");
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Facts) != 1 || len(prog.Periodics) != 1 || len(prog.Watches) != 1 {
		t.Fatalf("counts: %d facts %d periodics %d watches", len(prog.Facts), len(prog.Periodics), len(prog.Watches))
	}
	if prog.Periodics[0].IntervalMS != 500 {
		t.Errorf("interval: %d", prog.Periodics[0].IntervalMS)
	}
	if prog.Watches[0].Modes != "i" {
		t.Errorf("modes: %q", prog.Watches[0].Modes)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`table t(A: wat);`, "unknown column type"},
		{`table t(A: int) keys(3);`, "out of range"},
		{`event e(A: int) keys(0);`, "may not declare keys"},
		{`event e(A: int) durable;`, "may not be durable"},
		{`table t(A: int) durable keys(0);`, "expected ';'"},
		{`table t(A: int); t(1)`, "after atom"},
		{`table t(A: int); x t(1);`, "fact may not carry"},
		{`table t(A: int); t(X) :- t(count<X>);`, "only allowed in a rule head"},
		{`periodic p interval 0;`, "must be positive"},
		{`watch(t, "z");`, "not understood"},
		{`table t(A: int); t() :- t(1);`, "at least one argument"},
		{`table t(A: int); t(lower) :- t(X);`, "unexpected identifier"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, err, c.frag)
		}
	}
}

func TestParseConditionCallAmbiguity(t *testing.T) {
	// startswith is a builtin, not a table: should become a condition.
	prog, err := Parse(`
		table p(Path: string) keys(0);
		table q(Path: string) keys(0);
		q(P) :- p(P), startswith(P, "/tmp");
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Parser records it as an atom; the compiler reclassifies. Check the
	// rule still compiles in a runtime.
	rt := NewRuntime("n1")
	if err := rt.Install(prog); err != nil {
		t.Fatalf("install: %v", err)
	}
}

func TestRoundTripStrings(t *testing.T) {
	src := `
		table link(Src: string, Dst: string) keys(0, 1);
		r1 link(S, D) :- link(D, S);
	`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rendered := prog.Rules[0].String()
	if rendered != "r1 link(S, D) :- link(D, S);" {
		t.Errorf("render: %q", rendered)
	}
	d := prog.Tables[0].String()
	if d != "table link(Src: string, Dst: string) keys(0, 1);" {
		t.Errorf("decl render: %q", d)
	}
}

func TestNamespacedAtom(t *testing.T) {
	prog, err := Parse(`
		table mirror(Name: string, Arity: int) keys(0);
		mirror(N, A) :- sys::table(N, A, _, _);
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if prog.Rules[0].Body[0].Atom.Table != "sys::table" {
		t.Errorf("namespaced table: %q", prog.Rules[0].Body[0].Atom.Table)
	}
}

// TestPositionsMultiline pins down line AND column tracking across a
// rule that spans several lines: every AST node must point at the
// first token of its own construct, 1-based.
func TestPositionsMultiline(t *testing.T) {
	src := "table link(A: string, B: string) keys(0, 1);\n" + // line 1
		"event ping(N: int);\n" + // line 2
		"//lint:feed ping\n" + // line 3
		"r1 link(A,\n" + // line 4
		"        B) :- ping(N),\n" + // line 5
		"  A := tostr(N),\n" + // line 6
		"  B := tostr(N + 1);\n" + // line 7
		`link("x", "y");` + "\n" // line 8
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Tables); n != 2 {
		t.Fatalf("table decls: %d", n)
	}
	at := func(what string, gotLine, gotCol, line, col int) {
		t.Helper()
		if gotLine != line || gotCol != col {
			t.Errorf("%s at %d:%d, want %d:%d", what, gotLine, gotCol, line, col)
		}
	}
	at("decl link", prog.Tables[0].Line, prog.Tables[0].Col, 1, 1)
	at("decl ping", prog.Tables[1].Line, prog.Tables[1].Col, 2, 1)
	if len(prog.Pragmas) != 1 || prog.Pragmas[0].Line != 3 {
		t.Errorf("pragma line: %+v", prog.Pragmas)
	}

	if len(prog.Rules) != 1 {
		t.Fatalf("rules: %d", len(prog.Rules))
	}
	r := prog.Rules[0]
	at("rule r1", r.Line, r.Col, 4, 1)
	at("head atom link", r.Head.Line, r.Head.Col, 4, 4)
	if len(r.Body) != 3 {
		t.Fatalf("body elems: %d", len(r.Body))
	}
	at("body atom ping", r.Body[0].Line, r.Body[0].Col, 5, 15)
	at("body atom ping (atom node)", r.Body[0].Atom.Line, r.Body[0].Atom.Col, 5, 15)
	at("assign A", r.Body[1].Line, r.Body[1].Col, 6, 3)
	at("assign B", r.Body[2].Line, r.Body[2].Col, 7, 3)

	if len(prog.Facts) != 1 {
		t.Fatalf("facts: %d", len(prog.Facts))
	}
	at("fact link", prog.Facts[0].Line, prog.Facts[0].Col, 8, 1)
}

// TestErrorPositions checks syntax errors blame the offending token,
// not the start of the statement, on multi-line input.
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
	}{
		{"bare equals", "table t(A: int);\nr1 t(A) :- t(A), A = 1;", 2, 20},
		{"unterminated string", "table t(A: string);\nt(\"oops);", 2, 3},
		{"unterminated block comment", "table t(A: int);\n  /* never closed", 2, 3},
		{"missing semi", "table t(A: int)\ntable u(B: int);", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatal("parse succeeded")
			}
			se, ok := err.(*SyntaxError)
			if !ok {
				t.Fatalf("not a SyntaxError: %T %v", err, err)
			}
			if se.Line != tc.line || se.Col != tc.col {
				t.Errorf("error at %d:%d, want %d:%d (%v)", se.Line, se.Col, tc.line, tc.col, err)
			}
		})
	}
}
