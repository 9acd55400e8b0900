package overlog

import (
	"strings"
	"testing"
)

// evalBuiltin invokes a builtin directly with a throwaway env.
func evalBuiltin(t *testing.T, name string, args ...Value) (Value, error) {
	t.Helper()
	b, ok := LookupBuiltin(name)
	if !ok {
		t.Fatalf("no builtin %q", name)
	}
	return b.Fn(NewRuntime("test"), args)
}

func mustEval(t *testing.T, name string, args ...Value) Value {
	t.Helper()
	v, err := evalBuiltin(t, name, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestStringBuiltins(t *testing.T) {
	cases := []struct {
		name string
		args []Value
		want string
	}{
		{"concat", []Value{Str("a"), Int(1), Str("b")}, `"a1b"`},
		{"tostr", []Value{Int(42)}, `"42"`},
		{"tostr", []Value{Str("x")}, `"x"`},
		{"substr", []Value{Str("hello"), Int(1), Int(3)}, `"el"`},
		{"substr", []Value{Str("hello"), Int(3)}, `"lo"`},
		{"substr", []Value{Str("hi"), Int(-5), Int(99)}, `"hi"`},
		{"dirname", []Value{Str("/a/b/c")}, `"/a/b"`},
		{"dirname", []Value{Str("/a")}, `"/"`},
		{"dirname", []Value{Str("/")}, `"/"`},
		{"basename", []Value{Str("/a/b/c.txt")}, `"c.txt"`},
		{"basename", []Value{Str("/")}, `"/"`},
		{"pathjoin", []Value{Str("/a/"), Str("/b"), Str("c")}, `"/a/b/c"`},
		{"strjoin", []Value{List(Str("x"), Str("y")), Str("-")}, `"x-y"`},
	}
	for _, c := range cases {
		got := mustEval(t, c.name, c.args...)
		if got.String() != c.want {
			t.Errorf("%s(%v) = %s, want %s", c.name, c.args, got, c.want)
		}
	}
}

func TestPredicateBuiltins(t *testing.T) {
	if !mustEval(t, "startswith", Str("/tmp/x"), Str("/tmp")).AsBool() {
		t.Error("startswith")
	}
	if mustEval(t, "endswith", Str("a.txt"), Str(".log")).AsBool() {
		t.Error("endswith")
	}
	if !mustEval(t, "member", List(Int(1), Int(2)), Int(2)).AsBool() {
		t.Error("member")
	}
	if !mustEval(t, "and", Bool(true), Bool(true)).AsBool() ||
		mustEval(t, "and", Bool(true), Bool(false)).AsBool() {
		t.Error("and")
	}
	if !mustEval(t, "or", Bool(false), Bool(true)).AsBool() {
		t.Error("or")
	}
	if !mustEval(t, "not", Bool(false)).AsBool() {
		t.Error("not")
	}
}

func TestNumericBuiltins(t *testing.T) {
	if mustEval(t, "toint", Str(" 42 ")).AsInt() != 42 {
		t.Error("toint string")
	}
	if mustEval(t, "toint", Float(3.9)).AsInt() != 3 {
		t.Error("toint float")
	}
	if mustEval(t, "tofloat", Str("2.5")).AsFloat() != 2.5 {
		t.Error("tofloat")
	}
	if mustEval(t, "minv", Int(3), Int(1), Int(2)).AsInt() != 1 {
		t.Error("minv")
	}
	if mustEval(t, "maxv", Int(3), Int(1), Int(2)).AsInt() != 3 {
		t.Error("maxv")
	}
	if _, err := evalBuiltin(t, "toint", Str("nope")); err == nil {
		t.Error("toint should reject garbage")
	}
}

func TestListBuiltins(t *testing.T) {
	l := List(Int(1), Int(2), Int(3))
	if mustEval(t, "size", l).AsInt() != 3 {
		t.Error("size")
	}
	if mustEval(t, "nth", l, Int(1)).AsInt() != 2 {
		t.Error("nth")
	}
	if _, err := evalBuiltin(t, "nth", l, Int(9)); err == nil {
		t.Error("nth out of range")
	}
	if mustEval(t, "indexof", l, Int(3)).AsInt() != 2 {
		t.Error("indexof found")
	}
	if mustEval(t, "indexof", l, Int(7)).AsInt() != -1 {
		t.Error("indexof absent")
	}
	if _, err := evalBuiltin(t, "indexof", Int(1), Int(1)); err == nil {
		t.Error("indexof of a non-list")
	}
	if mustEval(t, "ltail", l).String() != "[2, 3]" {
		t.Error("ltail")
	}
	if mustEval(t, "ltail", List()).String() != "[]" {
		t.Error("ltail empty")
	}
	if mustEval(t, "lappend", l, Int(4)).String() != "[1, 2, 3, 4]" {
		t.Error("lappend")
	}
	if mustEval(t, "lconcat", List(Int(1)), List(Int(2))).String() != "[1, 2]" {
		t.Error("lconcat")
	}
	if mustEval(t, "ldiff", l, List(Int(2))).String() != "[1, 3]" {
		t.Error("ldiff")
	}
	if mustEval(t, "lsort", List(Int(3), Int(1), Int(2))).String() != "[1, 2, 3]" {
		t.Error("lsort")
	}
	got := mustEval(t, "split", Str("a,b,c"), Str(","))
	if len(got.AsList()) != 3 || got.AsList()[1].AsString() != "b" {
		t.Error("split")
	}
}

func TestHashBuiltins(t *testing.T) {
	a := mustEval(t, "hash", Str("x"))
	b := mustEval(t, "hash", Str("x"))
	if !a.Equal(b) || a.AsInt() < 0 {
		t.Error("hash not stable/non-negative")
	}
	for i := int64(0); i < 50; i++ {
		m := mustEval(t, "hashmod", Int(i), Int(7)).AsInt()
		if m < 0 || m >= 7 {
			t.Fatalf("hashmod out of range: %d", m)
		}
	}
	if _, err := evalBuiltin(t, "hashmod", Int(1), Int(0)); err == nil {
		t.Error("hashmod zero modulus")
	}
}

func TestEnvBuiltins(t *testing.T) {
	rt := NewRuntime("node:9")
	la, _ := LookupBuiltin("localaddr")
	v, _ := la.Fn(rt, nil)
	if v.AsString() != "node:9" {
		t.Errorf("localaddr: %s", v)
	}
	u, _ := LookupBuiltin("unique")
	a, _ := u.Fn(rt, nil)
	b, _ := u.Fn(rt, nil)
	if a.Equal(b) || !strings.HasPrefix(a.AsString(), "node:9#") {
		t.Errorf("unique: %s %s", a, b)
	}
	ni, _ := LookupBuiltin("nextid")
	x, _ := ni.Fn(rt, nil)
	y, _ := ni.Fn(rt, nil)
	if y.AsInt() != x.AsInt()+1 {
		t.Errorf("nextid: %s %s", x, y)
	}
	rnd, _ := LookupBuiltin("random")
	r1, err := rnd.Fn(rt, []Value{Int(10)})
	if err != nil || r1.AsInt() < 0 || r1.AsInt() >= 10 {
		t.Errorf("random: %s %v", r1, err)
	}
}

func TestIfelse(t *testing.T) {
	if mustEval(t, "ifelse", Bool(true), Int(1), Int(2)).AsInt() != 1 {
		t.Error("ifelse true")
	}
	if mustEval(t, "ifelse", Bool(false), Int(1), Int(2)).AsInt() != 2 {
		t.Error("ifelse false")
	}
	if _, err := evalBuiltin(t, "ifelse", Int(1), Int(1), Int(2)); err == nil {
		t.Error("ifelse non-bool cond")
	}
}

func TestPickkProperties(t *testing.T) {
	l := List(Str("a"), Str("b"), Str("c"), Str("d"))
	for seed := int64(0); seed < 20; seed++ {
		got := mustEval(t, "pickk", l, Int(2), Int(seed)).AsList()
		if len(got) != 2 || got[0].Equal(got[1]) {
			t.Fatalf("pickk seed %d: %v", seed, got)
		}
	}
	// k > len returns everything.
	if len(mustEval(t, "pickk", l, Int(99), Int(1)).AsList()) != 4 {
		t.Error("pickk overshoot")
	}
	if len(mustEval(t, "pickk", l, Int(-1), Int(1)).AsList()) != 0 {
		t.Error("pickk negative")
	}
}

func TestBuiltinArgCountEnforced(t *testing.T) {
	// Arity is enforced at compile time.
	rt := NewRuntime("n1")
	err := rt.InstallSource(`
		table t(A: int) keys(0);
		r1 t(A) :- t(B), A := size();
	`)
	if err == nil || !strings.Contains(err.Error(), "argument count") {
		t.Fatalf("expected arity error, got %v", err)
	}
}

func TestBuiltinNamesNonEmptyDocs(t *testing.T) {
	for _, n := range BuiltinNames() {
		b, _ := LookupBuiltin(n)
		if b.Doc == "" {
			t.Errorf("builtin %s lacks documentation", n)
		}
	}
}
