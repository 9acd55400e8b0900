package overlog

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics feeds the parser random byte soup and mutated
// fragments of real programs: every input must produce either a
// Program or an error, never a panic.
func TestParserNeverPanics(t *testing.T) {
	const real = `
		program x;
		table t(A: int, B: string) keys(0);
		event e(A: int);
		periodic p interval 100;
		watch(t, "i");
		t(1, "x");
		r1 t(A, concat("v", A)) :- e(A), A > 0, notin t(A, _);
		r2 next t(A, B) :- e(A), t(A, B);
		delete t(A, B) :- e(A), t(A, B);
	`
	r := rand.New(rand.NewSource(99))
	alphabet := `abcXYZ019(),;:-_@<>"+*/% .` + "\n\t"

	inputs := []string{"", ";", "(", `"`, "table", "::", ":-", "@@@", real}
	// Random soup.
	for i := 0; i < 300; i++ {
		n := r.Intn(80)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		inputs = append(inputs, b.String())
	}
	// Mutations of the real program: deletions and swaps.
	for i := 0; i < 300; i++ {
		mutated := []byte(real)
		for k := 0; k < 1+r.Intn(5); k++ {
			pos := r.Intn(len(mutated))
			switch r.Intn(3) {
			case 0:
				mutated[pos] = alphabet[r.Intn(len(alphabet))]
			case 1:
				mutated = append(mutated[:pos], mutated[pos+1:]...)
			case 2:
				mutated = append(mutated[:pos], append([]byte{alphabet[r.Intn(len(alphabet))]}, mutated[pos:]...)...)
			}
		}
		inputs = append(inputs, string(mutated))
	}

	for _, src := range inputs {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("parser panicked on %q: %v", src, rec)
				}
			}()
			prog, err := Parse(src)
			if err == nil && prog != nil {
				// If it parsed, installing must also not panic.
				rt := NewRuntime("fuzz")
				_ = rt.Install(prog)
			}
		}()
	}
}

// TestInstallNeverPanicsOnValidParsesWithBadSemantics throws semantic
// garbage (arity mismatch, unknown tables, unstratifiable programs) at
// Install and requires errors, not panics.
func TestInstallNeverPanicsOnValidParsesWithBadSemantics(t *testing.T) {
	cases := []string{
		`table t(A: int) keys(0); r1 t(A, B) :- t(A);`,
		`table t(A: int) keys(0); r1 nope(A) :- t(A);`,
		`table t(A: int) keys(0); r1 t(A) :- nope(A);`,
		`table t(A: int) keys(0); r1 t(A) :- t(A), notin t(A);`,
		`table t(A: int) keys(0); t("wrong type");`,
		`table t(A: int) keys(0); table t(A: string) keys(0);`,
		`watch(missing);`,
		`periodic t interval 5; table t(A: int) keys(0);`,
	}
	for _, src := range cases {
		rt := NewRuntime("n1")
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("install panicked on %q: %v", src, rec)
				}
			}()
			if err := rt.InstallSource(src); err == nil {
				t.Errorf("expected error for %q", src)
			}
		}()
	}
}

// TestStepNeverPanicsOnBadExternalTuples: malformed external input must
// error, not crash the node.
func TestStepNeverPanicsOnBadExternalTuples(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `table t(A: int, B: string) keys(0);`)
	bad := []Tuple{
		NewTuple("missing", Int(1)),
		NewTuple("t", Int(1)),                         // arity
		NewTuple("t", Str("x"), Str("y")),             // type
		NewTuple("t", Int(1), Str("ok"), Str("more")), // arity high
	}
	for _, tp := range bad {
		rt2 := NewRuntime("n2")
		mustInstall(t, rt2, `table t(A: int, B: string) keys(0);`)
		if _, err := rt2.Step(1, []Tuple{tp}); err == nil {
			t.Errorf("expected error for %s", tp)
		}
	}
	// And a good one still works after the errors above.
	if _, err := rt.Step(1, []Tuple{NewTuple("t", Int(1), Str("ok"))}); err != nil {
		t.Fatal(err)
	}
}

// TestStepEmptyRuntime: stepping a runtime before any program is
// installed (a fresh REPL, a node whose install failed) must be a
// no-op, not an out-of-range panic on the empty strata slice.
func TestStepEmptyRuntime(t *testing.T) {
	rt := NewRuntime("n1")
	rt.SetProfiling(true)
	for now := int64(1); now <= 3; now++ {
		if _, err := rt.Step(now, nil); err != nil {
			t.Fatalf("step %d: %v", now, err)
		}
	}
}

// TestStepAfterFailedInstall: an Install that declares a table and then
// fails leaves the table declared and the evaluation plans as they
// were; a tuple for that table must still step (the plans are indexed
// by table id, and this one is past their end).
func TestStepAfterFailedInstall(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `
		table a(X: int) keys(0);
		table b(X: int) keys(0);
		r1 b(X) :- a(X);
	`)
	if err := rt.InstallSource(`
		table late(X: int) keys(0);
		bad b(X) :- late(X), nosuch(X);
	`); err == nil {
		t.Fatal("install of a rule over an undeclared table succeeded")
	}
	if _, err := rt.Step(1, []Tuple{NewTuple("late", Int(1)), NewTuple("a", Int(2))}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Table("b").Dump(); got != "b(2)" {
		t.Fatalf("b holds %q", got)
	}
	if rt.Table("late").Len() != 1 {
		t.Fatal("the tuple for the late table was not stored")
	}
}
