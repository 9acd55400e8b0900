package overlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// genValue produces a random value of depth <= 2.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth > 0 && k == 6 {
		n := r.Intn(3)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return List(elems...)
	}
	switch k {
	case 0:
		return NilValue
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1000) - 500)
	case 3:
		return Float(r.Float64()*100 - 50)
	case 4:
		return Str(randString(r))
	case 5:
		return Addr("node:" + randString(r))
	default:
		return Int(r.Int63n(10))
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// valueBox adapts genValue to testing/quick.
type valueBox struct{ V Value }

func (valueBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueBox{V: genValue(r, 2)})
}

func TestPropCompareReflexiveAndAntisymmetric(t *testing.T) {
	f := func(a, b valueBox) bool {
		if a.V.Compare(a.V) != 0 {
			return false
		}
		ab, ba := a.V.Compare(b.V), b.V.Compare(a.V)
		return ab == -ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEqualImpliesSameEncoding(t *testing.T) {
	f := func(a, b valueBox) bool {
		ea := string(a.V.encode(nil))
		eb := string(b.V.encode(nil))
		if a.V.Equal(b.V) {
			// Int/float cross-equality is the one sanctioned exception:
			// encodings differ but tables normalize per declared type.
			if isNumeric(a.V.Kind()) && isNumeric(b.V.Kind()) && a.V.Kind() != b.V.Kind() {
				return true
			}
			return ea == eb
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEncodingInjectiveForDistinct(t *testing.T) {
	f := func(a, b valueBox) bool {
		if a.V.Equal(b.V) {
			return true
		}
		// Distinct values of the same "hash family" must encode apart.
		if isNumeric(a.V.Kind()) && isNumeric(b.V.Kind()) && a.V.AsFloat() == b.V.AsFloat() {
			return true
		}
		return string(a.V.encode(nil)) != string(b.V.encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCompareTransitivity(t *testing.T) {
	f := func(a, b, c valueBox) bool {
		// if a<=b and b<=c then a<=c
		if a.V.Compare(b.V) <= 0 && b.V.Compare(c.V) <= 0 {
			return a.V.Compare(c.V) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMonotonicity: in a positive (negation/aggregation-free)
// program, adding more base facts never removes derived tuples.
func TestPropMonotonicity(t *testing.T) {
	const src = `
		table edge(A: int, B: int) keys(0,1);
		table reach(A: int, B: int) keys(0,1);
		r1 reach(A, B) :- edge(A, B);
		r2 reach(A, C) :- edge(A, B), reach(B, C);
	`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		var facts []Tuple
		for i := 0; i < n; i++ {
			facts = append(facts, NewTuple("edge", Int(r.Int63n(6)), Int(r.Int63n(6))))
		}
		extra := NewTuple("edge", Int(r.Int63n(6)), Int(r.Int63n(6)))

		run := func(fs []Tuple) map[string]bool {
			rt := NewRuntime("n1")
			if err := rt.InstallSource(src); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Step(1, fs); err != nil {
				t.Fatal(err)
			}
			out := map[string]bool{}
			rt.Table("reach").Scan(func(tp Tuple) bool {
				out[tp.String()] = true
				return true
			})
			return out
		}
		small := run(facts)
		big := run(append(append([]Tuple{}, facts...), extra))
		for k := range small {
			if !big[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropFixpointOrderIndependence: the fixpoint of a positive program
// is independent of the order facts are delivered (single step vs.
// spread over many steps).
func TestPropFixpointOrderIndependence(t *testing.T) {
	const src = `
		table edge(A: int, B: int) keys(0,1);
		table reach(A: int, B: int) keys(0,1);
		r1 reach(A, B) :- edge(A, B);
		r2 reach(A, C) :- edge(A, B), reach(B, C);
	`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		var facts []Tuple
		for i := 0; i < n; i++ {
			facts = append(facts, NewTuple("edge", Int(r.Int63n(5)), Int(r.Int63n(5))))
		}
		oneShot := NewRuntime("a")
		if err := oneShot.InstallSource(src); err != nil {
			t.Fatal(err)
		}
		if _, err := oneShot.Step(1, facts); err != nil {
			t.Fatal(err)
		}
		incremental := NewRuntime("b")
		if err := incremental.InstallSource(src); err != nil {
			t.Fatal(err)
		}
		perm := r.Perm(len(facts))
		for i, idx := range perm {
			if _, err := incremental.Step(int64(i+1), []Tuple{facts[idx]}); err != nil {
				t.Fatal(err)
			}
		}
		return oneShot.Table("reach").Dump() == incremental.Table("reach").Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropAggregatesMatchOracle: count/sum/min/max computed by rules
// agree with a direct Go computation.
func TestPropAggregatesMatchOracle(t *testing.T) {
	const src = `
		table obs(K: int, V: int) keys(0,1);
		table agg(K: int, C: int, S: int, Mn: int, Mx: int) keys(0);
		r1 agg(K, count<V>, sum<V>, min<V>, max<V>) :- obs(K, V);
	`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		type stat struct {
			c, s, mn, mx int64
		}
		oracle := map[int64]*stat{}
		var facts []Tuple
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			k, v := r.Int63n(4), r.Int63n(100)-50
			dup := false
			for _, f := range facts {
				if f.Vals[0].AsInt() == k && f.Vals[1].AsInt() == v {
					dup = true
				}
			}
			if dup {
				continue
			}
			facts = append(facts, NewTuple("obs", Int(k), Int(v)))
			st, ok := oracle[k]
			if !ok {
				st = &stat{mn: v, mx: v}
				oracle[k] = st
			} else {
				if v < st.mn {
					st.mn = v
				}
				if v > st.mx {
					st.mx = v
				}
			}
			st.c++
			st.s += v
		}
		rt := NewRuntime("n1")
		if err := rt.InstallSource(src); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Step(1, facts); err != nil {
			t.Fatal(err)
		}
		ok := true
		rt.Table("agg").Scan(func(tp Tuple) bool {
			st := oracle[tp.Vals[0].AsInt()]
			if st == nil || st.c != tp.Vals[1].AsInt() || st.s != tp.Vals[2].AsInt() ||
				st.mn != tp.Vals[3].AsInt() || st.mx != tp.Vals[4].AsInt() {
				ok = false
			}
			return true
		})
		return ok && rt.Table("agg").Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// diffProgram is one program of the differential pool: its source, the
// tables a random fact stream feeds, and how a fact for one of them is
// drawn (nil gen: arity[table] ints below the caller's domain).
type diffProgram struct {
	name, src  string
	factTables []string
	arity      map[string]int
	gen        func(r *rand.Rand, table string) []Value
}

// batch draws up to n random facts for one step of the program. Facts
// from gen are keyed by their first column, and a batch carries one
// fact per key: two rows for one primary key in one step replace each
// other on every naive iteration, which never converges.
func (p diffProgram) batch(r *rand.Rand, n int, domain int64) []Tuple {
	var batch []Tuple
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		tbl := p.factTables[r.Intn(len(p.factTables))]
		var vals []Value
		if p.gen != nil {
			vals = p.gen(r, tbl)
			key := tbl + "/" + vals[0].String()
			if seen[key] {
				continue
			}
			seen[key] = true
		} else {
			vals = make([]Value, p.arity[tbl])
			for j := range vals {
				vals[j] = Int(r.Int63n(domain))
			}
		}
		batch = append(batch, Tuple{Table: tbl, Vals: vals})
	}
	return batch
}

// computedKeyPrelude is the log-shaped table the computed-key programs
// join through a function of its Cmd column, fed and shrunk by events:
// a stream over the tiny domains of genLogFact re-inserts keys deleted
// earlier, replaces rows under a primary key, and deletes rows of the
// indexed table, every few steps.
const computedKeyPrelude = `
	table decided(Slot: int, Cmd: list) keys(0);
	event dec(Slot: int, Cmd: list);
	event undec(Slot: int);
	dc1 decided(S, Cmd) :- dec(S, Cmd);
	ud1 delete decided(S, Cmd) :- undec(S), decided(S, Cmd);
`

// genLogFact draws facts for the computed-key programs. Commands are
// [Id, Client, Op, Key, Val], the shape paxos and kvstore log.
func genLogFact(r *rand.Rand, table string) []Value {
	pick := func(prefix string, n int) Value { return Str(fmt.Sprintf("%s%d", prefix, r.Intn(n))) }
	switch table {
	case "dec":
		op := Str("put")
		if r.Intn(2) == 0 {
			op = Str("del")
		}
		return []Value{Int(r.Int63n(6)), List(pick("r", 4), Addr("c:0"), op, pick("k", 3), pick("v", 2))}
	case "undec":
		return []Value{Int(r.Int63n(6))}
	case "req":
		return []Value{pick("r", 4), List(pick("r", 4), pick("v", 2))}
	case "own":
		return []Value{pick("r", 4), pick("w", 2)}
	case "unown":
		return []Value{pick("r", 4)}
	case "put":
		return []Value{pick("k", 3), pick("v", 2)}
	}
	panic("genLogFact: no generator for " + table)
}

// diffPrograms is the pool of programs the semi-naive/naive
// differential test draws from. Together they cover the paths where
// the two strategies could diverge: recursion (delta variants),
// multi-way joins (probe-plan dispatch), negation (stratum barriers),
// aggregation (stratum-entry recompute), deletion, and — the
// computed-key-* programs — joins whose key is derived by := or tested
// against a constant, which the frontier-first variant probes through
// a computed-key index (paxos cp1's text, its positive twin, and the
// text kvstore's a2 had before the apply cursor).
var diffPrograms = []diffProgram{
	{
		name: "transitive-closure",
		src: `
			table edge(A: int, B: int) keys(0,1);
			table reach(A: int, B: int) keys(0,1);
			r1 reach(A, B) :- edge(A, B);
			r2 reach(A, C) :- edge(A, B), reach(B, C);
		`,
		factTables: []string{"edge"},
		arity:      map[string]int{"edge": 2},
	},
	{
		name: "multiway-join",
		src: `
			table r(A: int, B: int) keys(0,1);
			table s(B: int, C: int) keys(0,1);
			table q(A: int, C: int) keys(0,1);
			j1 q(A, C) :- r(A, B), s(B, C), A != C;
		`,
		factTables: []string{"r", "s"},
		arity:      map[string]int{"r": 2, "s": 2},
	},
	{
		name: "negation",
		src: `
			table edge(A: int, B: int) keys(0,1);
			table node(A: int) keys(0);
			table reach(A: int, B: int) keys(0,1);
			table stuck(A: int) keys(0);
			r1 node(A) :- edge(A, _);
			r2 node(B) :- edge(_, B);
			r3 reach(A, B) :- edge(A, B);
			r4 reach(A, C) :- edge(A, B), reach(B, C);
			r5 stuck(A) :- node(A), notin reach(A, A);
		`,
		factTables: []string{"edge"},
		arity:      map[string]int{"edge": 2},
	},
	{
		name: "aggregate-over-join",
		src: `
			table obs(K: int, V: int) keys(0,1);
			table grp(K: int, G: int) keys(0,1);
			table agg(G: int, C: int, S: int) keys(0);
			a1 agg(G, count<V>, sum<V>) :- obs(K, V), grp(K, G);
		`,
		factTables: []string{"obs", "grp"},
		arity:      map[string]int{"obs": 2, "grp": 2},
	},
	{
		name: "deletion",
		src: `
			table live(A: int, B: int) keys(0,1);
			table tomb(A: int) keys(0);
			table out(A: int, B: int) keys(0,1);
			r1 out(A, B) :- live(A, B);
			r2 delete out(A, B) :- tomb(A), live(A, B);
		`,
		factTables: []string{"live", "tomb"},
		arity:      map[string]int{"live": 2, "tomb": 1},
	},
	{
		name: "computed-key-delete",
		src: computedKeyPrelude + `
			table pending(ReqId: string, Cmd: list) keys(0);
			event req(ReqId: string, Cmd: list);
			rq1 pending(Id, Cmd) :- req(Id, Cmd);
			cp1 delete pending(Id, C2) :- decided(_, Cmd), Id := tostr(nth(Cmd, 0)), pending(Id, C2);
		`,
		factTables: []string{"dec", "dec", "undec", "req", "req"},
		gen:        genLogFact,
	},
	{
		name: "computed-key-positive",
		src: computedKeyPrelude + `
			table owner(Id: string, Who: string) keys(0);
			table claimed(Slot: int, Who: string) keys(0,1);
			event own(Id: string, Who: string);
			event unown(Id: string);
			ow1 owner(Id, W) :- own(Id, W);
			ow2 delete owner(Id, W) :- unown(Id), owner(Id, W);
			po1 claimed(S, W) :- decided(S, Cmd), Id := tostr(nth(Cmd, 0)), owner(Id, W);
		`,
		factTables: []string{"dec", "dec", "undec", "own", "own", "unown"},
		gen:        genLogFact,
	},
	{
		name: "computed-key-const",
		src: computedKeyPrelude + `
			table kv(K: string, V: string) keys(0);
			event put(K: string, V: string);
			p1 kv(K, V) :- put(K, V);
			a2 delete kv(K, V) :- decided(_, Cmd), tostr(nth(Cmd, 2)) == "del",
			        K := tostr(nth(Cmd, 3)), kv(K, V);
		`,
		factTables: []string{"dec", "dec", "undec", "put", "put"},
		gen:        genLogFact,
	},
}

func diffProgramNamed(name string) diffProgram {
	for _, p := range diffPrograms {
		if p.name == name {
			return p
		}
	}
	panic("no differential program named " + name)
}

// dumpAll renders every table in name order — the full observable
// state of a runtime.
func dumpAll(rt *Runtime) string {
	var b strings.Builder
	for _, name := range rt.TableNames() {
		fmt.Fprintf(&b, "-- %s --\n%s", name, rt.Table(name).Dump())
	}
	return b.String()
}

// TestPropSemiNaiveMatchesNaive feeds identical random fact streams,
// spread over random step batches, to a semi-naive runtime and a
// naive-fixpoint runtime, and requires every table to agree after
// every step. This is the differential check that the delta-variant
// machinery (and the prepared probe plans riding on it) computes
// exactly the model the naive evaluator defines.
func TestPropSemiNaiveMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := diffPrograms[r.Intn(len(diffPrograms))]

		fast := NewRuntime("n1")
		slow := NewRuntime("n1", WithNaiveEval())
		for _, rt := range []*Runtime{fast, slow} {
			if err := rt.InstallSource(prog.src); err != nil {
				t.Fatal(err)
			}
		}
		steps := 1 + r.Intn(5)
		for s := 1; s <= steps; s++ {
			batch := prog.batch(r, 1+r.Intn(12), 5)
			if _, err := fast.Step(int64(s), cloneBatch(batch)); err != nil {
				t.Fatal(err)
			}
			if _, err := slow.Step(int64(s), cloneBatch(batch)); err != nil {
				t.Fatal(err)
			}
			if a, b := dumpAll(fast), dumpAll(slow); a != b {
				t.Logf("program %s seed %d diverged at step %d:\nsemi-naive:\n%s\nnaive:\n%s",
					prog.name, seed, s, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
