package overlog

import (
	"fmt"
	"math"
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
// drawn (nil gen: arity[table] ints below the caller's domain). For the
// aggregate programs, perGroup names the rules that must have been
// evaluated one group at a time by the end of a long enough stream and
// wholeRule those that never may be, each with its reason.
type diffProgram struct {
	name, src  string
	factTables []string
	arity      map[string]int
	gen        func(r *rand.Rand, table string) []Value
	keyLen     int // leading columns keying a generated fact; 0 means 1
	perGroup   []string
	wholeRule  map[string]string
}

// batch draws up to n random facts for one step of the program. Facts
// from gen are keyed by their leading columns, and a batch carries one
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
			key := tbl + "/" + fmt.Sprint(vals[:max(p.keyLen, 1)])
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

// genAggFact draws facts for the agg-* programs: every table is filled
// through a put_ event and shrunk through a del_ event over a domain
// small enough that rows are replaced under their key, groups empty and
// refill, and deleted keys come back, every few steps.
func genAggFact(r *rand.Rand, table string) []Value {
	n := func(k int) Value { return Int(int64(r.Intn(k))) }
	pick := func(vals ...Value) Value { return vals[r.Intn(len(vals))] }
	switch table {
	case "set_task":
		t := r.Intn(4)
		ty := Str("map")
		if t == 3 {
			ty = Str("reduce")
		}
		return []Value{n(3), Int(int64(t)), ty, pick(Str("pending"), Str("running"), Str("done"), Str("done"))}
	case "drop_task":
		return []Value{n(3), n(4)}
	case "put_obs":
		// Addends whose sum depends on the order they are folded in.
		return []Value{n(8), n(3), pick(Float(0.1), Float(0.2), Float(0.3), Float(1e16), Float(-1e16), Float(1.5))}
	case "put_item", "put_reading":
		return []Value{n(8), n(4)}
	case "del_obs", "del_item", "del_reading":
		return []Value{n(8)}
	case "put_bucket":
		return []Value{n(3), pick(Str("lo"), Str("hi"))}
	case "del_bucket", "put_closed", "del_closed", "zap":
		return []Value{n(3)}
	case "put_pending":
		return []Value{Str(fmt.Sprintf("r%d", r.Intn(6))), n(3)}
	case "del_pending", "put_inflight", "del_inflight":
		return []Value{Str(fmt.Sprintf("r%d", r.Intn(6)))}
	case "hb":
		// Twelve trackers: most are silent in a given step, so rows do age out.
		return []Value{Str(fmt.Sprintf("t%02d", r.Intn(12))), Int(int64(1 + r.Intn(2))), n(3)}
	}
	panic("genAggFact: no generator for " + table)
}

// genDispatchFact draws facts for dispatch-constants: requests keyed by
// K (a batch carries one per key, so a step's puts do not replace each
// other) whose Op is one of the constants the rules name, or one none
// of them does.
func genDispatchFact(r *rand.Rand, table string) []Value {
	ops := []Value{Str("put"), Str("put"), Str("get"), Str("get"), Str("del"), Str("stat")}
	return []Value{Int(int64(r.Intn(6))), Int(int64(r.Intn(40))), ops[r.Intn(len(ops))]}
}

// genChurnFact draws facts for low-cardinality-delete. Whole ranges of
// ten items enter, move to the other G and leave at once, so the two
// buckets of the index on G grow past posMapMin and shrink back under
// it within a stream; single items (ids above the ranges', so that a
// step never stores two rows under one key) churn beside them.
func genChurnFact(r *rand.Rand, table string) []Value {
	n := func(k int) Value { return Int(int64(r.Intn(k))) }
	switch table {
	case "put_range":
		return []Value{n(8), n(2)}
	case "del_range":
		return []Value{n(8)}
	case "put_item":
		return []Value{Int(int64(100 + r.Intn(10))), n(2), n(3)}
	case "del_item":
		return []Value{Int(int64(100 + r.Intn(10)))}
	case "probe":
		return []Value{n(3)}
	}
	panic("genChurnFact: no generator for " + table)
}

// diffPrograms is the pool of programs the semi-naive/naive
// differential test draws from. Together they cover the paths where
// the two strategies could diverge: recursion (delta variants),
// multi-way joins (probe-plan dispatch), negation (stratum barriers),
// aggregation (stratum-entry recompute), deletion, — the computed-key-*
// programs — joins whose key is derived by := or tested against a
// constant, which the frontier-first variant probes through a
// computed-key index (paxos cp1's text, its positive twin, and the text
// kvstore's a2 had before the apply cursor), and — the agg-* programs —
// aggregates over tables that shrink, maintained one group at a time
// where the rule's shape allows it and whole where it does not (the
// texts of boommr's jc1, pm1 and fc1/fm1 and paxos' mp1 among them),
// and — dispatch-constants and low-cardinality-delete — what a step
// visits: rules reached through a trigger list keyed by constant, and
// rows removed from index buckets long enough to be tracked by slot;
// then delta variants that switch to an alternative join order
// (generator-join), constants that == would coerce
// (coercing-constants), and a max column written by immediate, next and
// external heads competing within one step (max-column).
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
	{
		// jc1's text over a keyed table whose rows are replaced
		// (pending, running, done), deleted by a delete rule and
		// re-inserted; beside it pm1's self-join, which ranks against
		// every pending task and so stays whole-rule over the same table.
		name: "agg-keyed-replace",
		src: `
			table task(JobId: int, TaskId: int, Type: string, State: string) keys(0,1);
			table job_done_cnt(JobId: int, N: int) keys(0);
			table pending_map_rank(JobId: int, TaskId: int, R: int) keys(0,1);
			event set_task(JobId: int, TaskId: int, Type: string, State: string);
			event drop_task(JobId: int, TaskId: int);
			st1 task(J, T, Ty, St) :- set_task(J, T, Ty, St);
			dt1 delete task(J, T, Ty, St) :- drop_task(J, T), task(J, T, Ty, St);
			jc1 job_done_cnt(J, count<T>) :- task(J, T, _, "done");
			pm1 pending_map_rank(J, T, count<K2>) :- task(J, T, "map", "pending"),
			        task(J2, T2, "map", "pending"), K2 := J2 * 1000000 + T2,
			        or(J2 < J, and(J2 == J, T2 <= T));
		`,
		factTables: []string{"set_task", "set_task", "set_task", "drop_task"},
		gen:        genAggFact,
		keyLen:     2,
		perGroup:   []string{"jc1"},
		wholeRule:  map[string]string{"pm1": "every input has an atom without the group"},
	},
	{
		// Every aggregate kind over groups that shrink, empty and refill.
		// The float addends make sum and avg depend on fold order, which
		// differs between a scan of all groups and a probe of one.
		name: "agg-kinds",
		src: `
			table obs(Id: int, G: int, V: float) keys(0);
			table stats(G: int, N: int, Mn: float, Mx: float, Av: float, Vs: list, Sm: float) keys(0);
			event put_obs(Id: int, G: int, V: float);
			event del_obs(Id: int);
			po1 obs(Id, G, V) :- put_obs(Id, G, V);
			do1 delete obs(Id, G, V) :- del_obs(Id), obs(Id, G, V);
			s1 stats(G, count<_>, min<V>, max<V>, avg<V>, setof<V>, sum<V>) :- obs(_, G, V);
		`,
		factTables: []string{"put_obs", "put_obs", "del_obs", "del_obs"},
		gen:        genAggFact,
		perGroup:   []string{"s1"},
	},
	{
		// An aggregate over an aggregate's head: the inner row displaced
		// under its key is the outer rule's retraction, in the same step.
		name: "agg-over-agg",
		src: `
			table item(Id: int, G: int) keys(0);
			table per_g(G: int, N: int) keys(0);
			table hist(N: int, Gs: int) keys(0);
			event put_item(Id: int, G: int);
			event del_item(Id: int);
			pi1 item(Id, G) :- put_item(Id, G);
			di1 delete item(Id, G) :- del_item(Id), item(Id, G);
			ig1 per_g(G, count<Id>) :- item(Id, G);
			hg1 hist(N, count<G>) :- per_g(G, N);
		`,
		factTables: []string{"put_item", "put_item", "del_item"},
		gen:        genAggFact,
		perGroup:   []string{"ig1", "hg1"},
	},
	{
		// A group variable bound by := (a test in the seeded form, and a
		// computed-key probe of reading): per group when bucket changes,
		// whole when reading does, whose atom does not carry B.
		name: "agg-assigned-group",
		src: `
			table reading(Id: int, V: int) keys(0);
			table bucket(B: int, Name: string) keys(0);
			table per_bucket(B: int, Name: string, N: int, S: int) keys(0);
			event put_reading(Id: int, V: int);
			event del_reading(Id: int);
			event put_bucket(B: int, Name: string);
			event del_bucket(B: int);
			pr1 reading(Id, V) :- put_reading(Id, V);
			dr1 delete reading(Id, V) :- del_reading(Id), reading(Id, V);
			pb1 bucket(B, Nm) :- put_bucket(B, Nm);
			db1 delete bucket(B, Nm) :- del_bucket(B), bucket(B, Nm);
			bk1 per_bucket(B, Nm, count<Id>, sum<V>) :- reading(Id, V), B := V % 3, bucket(B, Nm);
		`,
		factTables: []string{"put_reading", "del_reading", "put_bucket", "put_bucket", "del_bucket"},
		gen:        genAggFact,
		perGroup:   []string{"bk1"},
	},
	{
		// Negation: mp1's text (one constant group), a notin whose atom
		// does not carry the group (a change to inflight is whole-rule)
		// and one that does (a row entering closed empties its group, a
		// row leaving it brings the group back).
		name: "agg-notin",
		src: `
			table pending(Id: string, C: int) keys(0);
			table inflight(Id: string) keys(0);
			table closed(C: int) keys(0);
			table min_pending(K: string, Id: string) keys(0);
			table idle_by_cmd(C: int, N: int) keys(0);
			table open_by_cmd(C: int, Ids: list) keys(0);
			event put_pending(Id: string, C: int);
			event del_pending(Id: string);
			event put_inflight(Id: string);
			event del_inflight(Id: string);
			event put_closed(C: int);
			event del_closed(C: int);
			pp1 pending(Id, C) :- put_pending(Id, C);
			dp1 delete pending(Id, C) :- del_pending(Id), pending(Id, C);
			pf1 inflight(Id) :- put_inflight(Id);
			df1 delete inflight(Id) :- del_inflight(Id), inflight(Id);
			pc1 closed(C) :- put_closed(C);
			dc1 delete closed(C) :- del_closed(C), closed(C);
			mp1 min_pending("m", min<Id>) :- pending(Id, _), notin inflight(Id);
			ic1 idle_by_cmd(C, count<Id>) :- pending(Id, C), notin inflight(Id);
			oc1 open_by_cmd(C, setof<Id>) :- pending(Id, C), notin closed(C);
		`,
		factTables: []string{"put_pending", "put_pending", "del_pending", "put_inflight", "del_inflight", "put_closed", "del_closed"},
		gen:        genAggFact,
		perGroup:   []string{"ic1", "oc1"},
		wholeRule:  map[string]string{"mp1": "constant group"},
	},
	{
		// fc1's and fm1's texts, and fl1, which but for its now() would be
		// maintained per tracker: a row counts while its heartbeat is
		// younger than three ticks of the step clock. Every step carries
		// a heartbeat, so the rules run every step, and must then drop
		// the trackers whose rows did not change but which the clock has
		// moved past the threshold: now() is read for every group or none.
		name: "agg-now",
		src: `
			table tracker(Tr: string, HB: int, MS: int, MU: int) keys(0);
			table free_map_cnt(K: string, N: int) keys(0);
			table free_map_rank(Tr: string, K: int) keys(0);
			table free_slots(Tr: string, N: int) keys(0);
			event hb(Tr: string, MS: int, MU: int);
			h1 tracker(Tr, now(), MS, MU) :- hb(Tr, MS, MU);
			fc1 free_map_cnt("m", count<Tr>) :- tracker(Tr, HB, MS, MU), MS > MU, HB >= now() - 3;
			fm1 free_map_rank(Tr, count<Tr2>) :- tracker(Tr, HB, MS, MU), MS > MU, HB >= now() - 3,
			        tracker(Tr2, HB2, MS2, MU2), MS2 > MU2, HB2 >= now() - 3, Tr2 <= Tr;
			fl1 free_slots(Tr, max<F>) :- tracker(Tr, HB, MS, MU), HB >= now() - 3, F := MS - MU;
		`,
		factTables: []string{"hb"},
		gen:        genAggFact,
		wholeRule:  map[string]string{"fc1": "calls now()", "fm1": "calls now()", "fl1": "calls now()"},
	},
	{
		// An event table as input: a step's events are the whole input,
		// so a group no event of this step names is retracted, not kept.
		// (Every step carries an event: a step without one evaluates the
		// rule under naive evaluation only.)
		name: "agg-event-input",
		src: `
			table seen_cnt(G: int, N: int) keys(0);
			event put_item(Id: int, G: int);
			sc1 seen_cnt(G, count<Id>) :- put_item(Id, G);
		`,
		factTables: []string{"put_item"},
		gen:        genAggFact,
		wholeRule:  map[string]string{"sc1": "event input put_item"},
	},
	{
		// A head row deleted by another rule. Naive evaluation derives it
		// again on the next step; a rule maintained per group does too,
		// because a row lost from its own head touches that row's group.
		name: "agg-head-deleted",
		src: `
			table item(Id: int, G: int) keys(0);
			table cnt(G: int, N: int) keys(0);
			event put_item(Id: int, G: int);
			event del_item(Id: int);
			event zap(G: int);
			pi1 item(Id, G) :- put_item(Id, G);
			di1 delete item(Id, G) :- del_item(Id), item(Id, G);
			c1 cnt(G, count<Id>) :- item(Id, G);
			z1 delete cnt(G, N) :- zap(G), cnt(G, N);
		`,
		factTables: []string{"put_item", "put_item", "del_item", "zap"},
		gen:        genAggFact,
		perGroup:   []string{"c1"},
	},
	{
		// One event atom under many rules: constants on the dispatch
		// column (boomfs' request rules), none at all (d5), a constant at
		// a scan position that is not the rule's first (d6), a constant
		// on another column (d7), one no tuple carries (d8), and
		// aggregates whose body opens with one — maintained (d9: entered
		// while it has a group to retract) and deferred (d10). A step's
		// frontier mixes the operations.
		name: "dispatch-constants",
		src: `
			table kv(K: int, Id: int) keys(0);
			table got(Id: int, V: int) keys(0,1);
			table miss(Id: int, K: int) keys(0,1);
			table seen(Id: int, Op: string) keys(0,1);
			table hit(K: int, Id: int) keys(0,1);
			table zero(Id: int) keys(0);
			table never(Id: int) keys(0);
			table puts(K: string, N: int) keys(0);
			table last_puts(K: string, N: int) keys(0);
			event req(K: int, Id: int, Op: string);
			d1 kv(K, Id) :- req(K, Id, "put");
			d2 got(Id, V) :- req(K, Id, "get"), kv(K, V);
			d3 miss(Id, K) :- req(K, Id, "get"), notin kv(K, _);
			d4 delete kv(K, V) :- req(K, _, "del"), kv(K, V);
			d5 seen(Id, Op) :- req(_, Id, Op);
			d6 hit(K, Id) :- kv(K, _), req(K, Id, "get");
			d7 zero(Id) :- req(0, Id, _);
			d8 never(Id) :- req(_, Id, "nope");
			d9 puts("n", count<Id>) :- req(_, Id, "put");
			d10 next last_puts("n", count<Id>) :- req(_, Id, "put");
		`,
		factTables: []string{"req"},
		gen:        genDispatchFact,
	},
	{
		// Max columns written by heads that compete within one step: an
		// immediate rule (two, one of them deriving from the other's
		// input), a next rule, and external inserts, several per key.
		// They merge by max in any order, so unlike a keyed table a
		// batch may carry many rows for one key. Rules read the table
		// only monotonically: a view of it and a threshold.
		name: "max-column",
		src: `
			table best(K: int, V: int max) keys(0);
			table mirror(K: int, V: int max) keys(0);
			table high(K: int) keys(0);
			event bid(K: int, V: int);
			event defer(K: int, V: int);
			b1 best(K, V) :- bid(K, V);
			b2 best(K, V + 2) :- bid(K, V), V < 3;
			b3 next best(K, V) :- defer(K, V);
			m1 mirror(K, V) :- best(K, V);
			h1 high(K) :- mirror(K, V), V >= 5;
		`,
		factTables: []string{"bid", "bid", "defer", "defer", "best"},
		gen:        genMaxFact,
		keyLen:     2,
	},
	{
		// Insert, key-replace and delete churn under a 2-value indexed
		// column: the per-group aggregate and the probe rules read item
		// through its index on G, whose two buckets hold a few dozen rows
		// — removals find theirs by slot — and sometimes a handful.
		name: "low-cardinality-delete",
		src: `
			table item(Id: int, G: int, V: int) keys(0);
			table ten(N: int) keys(0);
			table cnt(G: int, N: int, S: int) keys(0);
			table seen(G: int, Id: int, V: int) keys(0,1,2);
			table lonely(G: int) keys(0);
			event put_range(Lo: int, G: int);
			event del_range(Lo: int);
			event put_item(Id: int, G: int, V: int);
			event del_item(Id: int);
			event probe(G: int);
			ten(0); ten(1); ten(2); ten(3); ten(4); ten(5); ten(6); ten(7); ten(8); ten(9);
			pr1 item(Lo * 10 + N, G, N) :- put_range(Lo, G), ten(N);
			dr1 delete item(Id, G, V) :- del_range(Lo), ten(N), Id := Lo * 10 + N, item(Id, G, V);
			pi1 item(Id, G, V) :- put_item(Id, G, V);
			di1 delete item(Id, G, V) :- del_item(Id), item(Id, G, V);
			ag1 cnt(G, count<Id>, sum<V>) :- item(Id, G, V);
			sn1 seen(G, Id, V) :- probe(G), item(Id, G, V);
			ln1 lonely(G) :- probe(G), notin item(_, G, _);
		`,
		factTables: []string{"put_range", "put_range", "put_range", "del_range", "put_item", "del_item", "probe"},
		gen:        genChurnFact,
	},
	{
		// Delta variants whose run after the frontier full-scans a
		// generator that a later atom can key (planAlternative): the join
		// program of evalbench (new u), a star whose hub keys the leaves
		// (new r, new s, new u), a generator with a repeated variable (r(B, B)),
		// a keying atom with a constant (tag(A, B, 1)), and a :=, a notin
		// and a condition that raises (K = 24) after the run. Table sizes
		// drift from step to step and stream to stream, so the keying
		// atom's table is sometimes the smaller and sometimes not.
		name: "generator-join",
		src: `
			table r(A: int, B: int) keys(0,1);
			table s(B: int, C: int) keys(0,1);
			table u(C: int, D: int) keys(0,1);
			table hub(K: int, K2: int, K3: int) keys(0,1,2);
			table tag(A: int, B: int, T: int) keys(0,1,2);
			table blocked(K: int) keys(0);
			table q(A: int, D: int) keys(0,1);
			table star(A: int, B: int, C: int) keys(0,1,2);
			table rep(A: int, B: int) keys(0,1);
			table tagged(A: int, C: int) keys(0,1);
			table big(A: int, D: int, K: int) keys(0,1,2);
			j1 q(A, D) :- r(A, B), s(B, C), u(C, D), A != D;
			st1 star(A, B, C) :- r(A, K), s(B, K2), u(C, K3), hub(K, K2, K3);
			rf1 rep(A, B) :- u(A, _), r(B, B), s(A, B);
			cq1 tagged(A, C) :- u(A, _), r(B, C), tag(A, B, 1);
			e1 big(A, D, K) :- r(A, B), s(B, C), u(C, D), K := A * 5 + D, notin blocked(K), 100 / (K - 24) < 0;
		`,
		factTables: []string{"r", "s", "u", "hub", "tag", "blocked"},
		gen:        genJoinFact,
	},
	{
		// Constants that == coerces and an index probe does not: 1.0
		// against an int stored in an any column, -0.0 against 0.0. The
		// frontier re-check compares as the probe does.
		name: "coercing-constants",
		src: `
			table t(K: int, X: any) keys(0,1);
			table f(K: int, X: float) keys(0,1);
			table hit(K: int) keys(0);
			table zhit(K: int) keys(0);
			h1 hit(K) :- t(K, 1.0);
			h2 zhit(K) :- f(K, -0.0);
		`,
		factTables: []string{"t", "f"},
		gen:        genCoerceFact,
		keyLen:     2,
	},
}

// genJoinFact draws facts for generator-join.
func genJoinFact(r *rand.Rand, table string) []Value {
	n := func() Value { return Int(int64(r.Intn(5))) }
	switch table {
	case "r", "s", "u":
		return []Value{n(), n()}
	case "hub", "tag":
		return []Value{n(), n(), Int(int64(r.Intn(2)))}
	case "blocked":
		return []Value{n()}
	}
	panic("genJoinFact: no generator for " + table)
}

// genMaxFact draws facts for max-column: a few keys, small values.
func genMaxFact(r *rand.Rand, table string) []Value {
	return []Value{Int(int64(r.Intn(3))), Int(int64(r.Intn(7)))}
}

// genCoerceFact draws facts for coercing-constants.
func genCoerceFact(r *rand.Rand, table string) []Value {
	k := Int(int64(r.Intn(4)))
	switch table {
	case "t":
		return []Value{k, []Value{Int(1), Float(1), Int(2)}[r.Intn(3)]}
	case "f":
		return []Value{k, []Value{Float(0), Float(math.Copysign(0, -1)), Float(1.5)}[r.Intn(3)]}
	}
	panic("genCoerceFact: no generator for " + table)
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

// cloneBatch gives each runtime its own tuple values: insertion
// normalizes Vals in place, so sharing one batch across runtimes would
// let one runtime's normalization leak into the other's input.
func cloneBatch(batch []Tuple) []Tuple {
	out := make([]Tuple, len(batch))
	for i, tp := range batch {
		out[i] = tp.Clone()
	}
	return out
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
			_, errFast := fast.Step(int64(s), cloneBatch(batch))
			_, errSlow := slow.Step(int64(s), cloneBatch(batch))
			if fmt.Sprint(errFast) != fmt.Sprint(errSlow) {
				t.Logf("program %s seed %d step %d: semi-naive error %v, naive error %v",
					prog.name, seed, s, errFast, errSlow)
				return false
			}
			if errFast != nil {
				return true // a failed step leaves both runtimes mid-fixpoint
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
