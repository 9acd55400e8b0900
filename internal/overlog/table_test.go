package overlog

import (
	"math/rand"
	"strings"
	"testing"
)

func testDecl() *TableDecl {
	return &TableDecl{Name: "t", Cols: []ColDecl{
		{Name: "K", Type: KindString},
		{Name: "V", Type: KindInt},
	}, KeyCols: []int{0}}
}

func TestTableInsertReplaceDelete(t *testing.T) {
	tbl := NewTable(testDecl())
	ins, disp, err := tbl.Insert(NewTuple("t", Str("a"), Int(1)))
	if err != nil || !ins || disp != nil {
		t.Fatalf("first insert: %v %v %v", ins, disp, err)
	}
	ins, disp, err = tbl.Insert(NewTuple("t", Str("a"), Int(1)))
	if err != nil || ins || disp != nil {
		t.Fatalf("duplicate insert: %v %v %v", ins, disp, err)
	}
	ins, disp, err = tbl.Insert(NewTuple("t", Str("a"), Int(2)))
	if err != nil || !ins || disp == nil || disp.Vals[1].AsInt() != 1 {
		t.Fatalf("replacement: %v %v %v", ins, disp, err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len: %d", tbl.Len())
	}
	removed, err := tbl.Delete(NewTuple("t", Str("a"), Int(1)))
	if err != nil || removed {
		t.Fatalf("delete stale: %v %v", removed, err)
	}
	removed, err = tbl.Delete(NewTuple("t", Str("a"), Int(2)))
	if err != nil || !removed || tbl.Len() != 0 {
		t.Fatalf("delete: %v %v len=%d", removed, err, tbl.Len())
	}
}

func TestTableDeleteByKey(t *testing.T) {
	tbl := NewTable(testDecl())
	tbl.Insert(NewTuple("t", Str("a"), Int(1)))
	old, err := tbl.DeleteByKey(NewTuple("t", Str("a"), Int(999)))
	if err != nil || old == nil || old.Vals[1].AsInt() != 1 {
		t.Fatalf("DeleteByKey: %v %v", old, err)
	}
	old, err = tbl.DeleteByKey(NewTuple("t", Str("a"), Int(0)))
	if err != nil || old != nil {
		t.Fatalf("DeleteByKey missing: %v %v", old, err)
	}
}

func TestTableSecondaryIndex(t *testing.T) {
	decl := &TableDecl{Name: "t", Cols: []ColDecl{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindInt},
	}, KeyCols: []int{0, 1}}
	tbl := NewTable(decl)
	for i := int64(0); i < 100; i++ {
		tbl.Insert(NewTuple("t", Int(i), Int(i%7)))
	}
	got := tbl.Match([]int{1}, []Value{Int(3)})
	if len(got) != 14 { // 3, 10, ..., 94
		t.Fatalf("match size: %d", len(got))
	}
	// Index stays correct under deletion.
	tbl.Delete(NewTuple("t", Int(3), Int(3)))
	got = tbl.Match([]int{1}, []Value{Int(3)})
	if len(got) != 13 {
		t.Fatalf("after delete: %d", len(got))
	}
	// And under insertion through the index path.
	tbl.Insert(NewTuple("t", Int(200), Int(3)))
	got = tbl.Match([]int{1}, []Value{Int(3)})
	if len(got) != 14 {
		t.Fatalf("after insert: %d", len(got))
	}
}

func TestTableTypeErrors(t *testing.T) {
	tbl := NewTable(testDecl())
	if _, _, err := tbl.Insert(NewTuple("t", Int(1), Int(1))); err == nil {
		t.Fatal("expected type error")
	}
	if _, _, err := tbl.Insert(NewTuple("t", Str("a"))); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestTableNormalizeAddrString(t *testing.T) {
	decl := &TableDecl{Name: "n", Cols: []ColDecl{{Name: "A", Type: KindAddr}}, KeyCols: []int{0}}
	tbl := NewTable(decl)
	tbl.Insert(NewTuple("n", Str("host:1")))
	if !tbl.Contains(NewTuple("n", Addr("host:1"))) {
		t.Fatal("addr/string normalization failed")
	}
}

func TestTableDump(t *testing.T) {
	tbl := NewTable(testDecl())
	tbl.Insert(NewTuple("t", Str("b"), Int(2)))
	tbl.Insert(NewTuple("t", Str("a"), Int(1)))
	d := tbl.Dump()
	if !strings.HasPrefix(d, `t("a", 1)`) {
		t.Fatalf("dump order: %q", d)
	}
}

func TestEventTableClear(t *testing.T) {
	decl := &TableDecl{Name: "e", Event: true, Cols: []ColDecl{{Name: "A", Type: KindInt}}}
	tbl := NewTable(decl)
	tbl.Insert(NewTuple("e", Int(1)))
	tbl.Match([]int{0}, []Value{Int(1)}) // build an index
	tbl.Clear()
	if tbl.Len() != 0 {
		t.Fatal("clear failed")
	}
	if got := tbl.Match([]int{0}, []Value{Int(1)}); len(got) != 0 {
		t.Fatalf("index not cleared: %v", got)
	}
}

// TestComputedKeyIndexUnkeyedRows pins the table half of the
// computed-key contract: an index keyed by a function of the row finds
// rows by that function's value, shares the computed column between
// callers that name the same function, keeps up with inserts,
// replacements and deletes, verifies stored columns but not computed
// ones (the caller's test does), and returns a row whose key fails to
// evaluate from every probe until the row is gone.
func TestComputedKeyIndexUnkeyedRows(t *testing.T) {
	decl := &TableDecl{Name: "log", Cols: []ColDecl{
		{Name: "Slot", Type: KindInt},
		{Name: "Cmd", Type: KindList},
	}, KeyCols: []int{0}}
	tbl := NewTable(decl)
	call := func(name string, args ...cexpr) cexpr {
		b, _ := LookupBuiltin(name)
		return ccall{b: b, args: args}
	}
	first := func() cexpr { return call("tostr", call("nth", cslot{idx: 1}, cconst{v: Int(0)})) }
	vc := tbl.computedCol(first())
	if vc != 2 || tbl.computedCol(first()) != vc {
		t.Fatalf("computed column %d, want 2 both times", vc)
	}
	if other := tbl.computedCol(call("tostr", call("nth", cslot{idx: 1}, cconst{v: Int(1)}))); other != 3 {
		t.Fatalf("a different function got column %d, want 3", other)
	}
	row := func(slot int64, cmd ...Value) Tuple { return NewTuple("log", Int(slot), List(cmd...)) }
	slots := func(rows []Tuple) string {
		var out []string
		for _, tp := range rows {
			out = append(out, tp.Vals[0].String())
		}
		return strings.Join(out, ",")
	}
	probe := func(id string) string { return slots(tbl.Match([]int{vc}, []Value{Str(id)})) }

	tbl.Insert(row(1, Str("a")))
	tbl.Insert(row(2)) // nth fails: stored before the index exists
	if got := probe("a"); got != "1,2" {
		t.Fatalf("probe a = %s, want the keyed row then the unkeyed one", got)
	}
	tbl.Insert(row(3, Str("b")))
	tbl.Insert(row(4)) // unkeyed, arriving through the pending backlog
	if got := probe("b"); got != "3,2,4" {
		t.Fatalf("probe b = %s", got)
	}
	if got := probe("nobody"); got != "2,4" {
		t.Fatalf("probe of an absent key = %s, want just the unkeyed rows", got)
	}
	// Stored columns in the same index are verified, for unkeyed rows too.
	if got := slots(tbl.Match([]int{0, vc}, []Value{Int(4), Str("b")})); got != "4" {
		t.Fatalf("probe slot 4 / b = %s, want only the unkeyed row in slot 4", got)
	}
	tbl.Insert(row(2, Str("b"))) // replacement gives slot 2 a key
	tbl.Delete(row(4))
	tbl.Delete(row(1, Str("a")))
	if got := probe("b"); got != "3,2" {
		t.Fatalf("after replace and delete, probe b = %s", got)
	}
	if got := probe("a"); got != "" {
		t.Fatalf("after delete, probe a = %s", got)
	}
	tbl.Clear()
	tbl.Insert(row(7))
	if got := probe("a"); got != "7" {
		t.Fatalf("after Clear, probe a = %s", got)
	}
}

// indexModel is the reference an index is held to: per key, the rows in
// the order storage documents — a fresh index lists each key's rows in
// sorted-scan order, an insert appends, a removal moves the key's last
// row into the hole — and the rows whose computed key fails, apart.
// Everything is found by walking; nothing is shared with Table.
type indexModel struct {
	cols    []int
	keyOf   func(Tuple) (string, bool) // false: a computed column fails on the row
	buckets map[string][]Tuple
	unkeyed []Tuple
}

func (m *indexModel) add(tp Tuple) {
	if key, ok := m.keyOf(tp); ok {
		m.buckets[key] = append(m.buckets[key], tp)
	} else {
		m.unkeyed = append(m.unkeyed, tp)
	}
}

func (m *indexModel) remove(slot Value) {
	swapOut := func(rows []Tuple) []Tuple {
		for i := range rows {
			if rows[i].Vals[0].Equal(slot) {
				rows[i] = rows[len(rows)-1]
				return rows[:len(rows)-1]
			}
		}
		return rows
	}
	for key, rows := range m.buckets {
		m.buckets[key] = swapOut(rows)
	}
	m.unkeyed = swapOut(m.unkeyed)
}

// TestPropIndexMatchOrderMatchesModel drives one table through seeded
// random inserts, key replacements, Delete, DeleteByKey, Clear and
// snapshot-restore (dump sorted, clear, load — what RestoreSnapshot does
// to a table), and after every operation probes three indexes — a
// 2-value stored column whose buckets grow past posMapMin and shrink
// back, a computed key with rows it fails on, and the pair — holding
// each Match result, as an ordered list, to indexModel. Probe candidate
// order decides derivation order, so "the same rows" is not enough.
func TestPropIndexMatchOrderMatchesModel(t *testing.T) {
	decl := &TableDecl{Name: "log", Cols: []ColDecl{
		{Name: "Slot", Type: KindInt},
		{Name: "G", Type: KindInt},
		{Name: "Cmd", Type: KindList},
	}, KeyCols: []int{0}}
	nth, _ := LookupBuiltin("nth")
	tostr, _ := LookupBuiltin("tostr")
	first := ccall{b: tostr, args: []cexpr{ccall{b: nth, args: []cexpr{cslot{idx: 2}, cconst{v: Int(0)}}}}}
	firstOf := func(tp Tuple) (string, bool) {
		if l := tp.Vals[2].AsList(); len(l) > 0 {
			return l[0].AsString(), true
		}
		return "", false
	}
	render := func(rows []Tuple) string {
		var b strings.Builder
		for _, tp := range rows {
			b.WriteString(tp.String())
			b.WriteString(" ")
		}
		return b.String()
	}
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tbl := NewTable(decl)
		vc := tbl.computedCol(first)
		models := []*indexModel{
			{cols: []int{1}, keyOf: func(tp Tuple) (string, bool) { return tp.Vals[1].String(), true }},
			{cols: []int{vc}, keyOf: firstOf},
			{cols: []int{1, vc}, keyOf: func(tp Tuple) (string, bool) {
				f, ok := firstOf(tp)
				return tp.Vals[1].String() + "/" + f, ok
			}},
		}
		rows := map[int64]Tuple{} // the table's contents, by slot
		store := func(tp Tuple) {
			slot := tp.Vals[0].AsInt()
			if old, ok := rows[slot]; ok {
				if old.Equal(tp) {
					return
				}
				for _, m := range models {
					if m.buckets != nil {
						m.remove(tp.Vals[0])
					}
				}
			}
			rows[slot] = tp
			for _, m := range models {
				if m.buckets != nil {
					m.add(tp)
				}
			}
		}
		drop := func(slot int64) {
			if _, ok := rows[slot]; !ok {
				return
			}
			delete(rows, slot)
			for _, m := range models {
				if m.buckets != nil {
					m.remove(Int(slot))
				}
			}
		}
		sorted := func() []Tuple {
			var all []Tuple
			for _, tp := range rows {
				all = append(all, tp)
			}
			SortTuples(all)
			return all
		}
		randRow := func() Tuple {
			cmd := List()
			if r.Intn(5) > 0 {
				cmd = List(Str(string(rune('a'+r.Intn(3)))), Int(int64(r.Intn(2))))
			}
			return NewTuple("log", Int(int64(r.Intn(150))), Int(int64(r.Intn(2))), cmd)
		}
		maxBucket, tracked := 0, false
		for op := 0; op < 1500; op++ {
			switch k := r.Intn(1000); {
			case k < 600 || len(rows) < 20:
				tp := randRow()
				if _, _, err := tbl.Insert(tp.Clone()); err != nil {
					t.Fatal(err)
				}
				store(tp)
			case k < 780:
				slot := int64(r.Intn(150))
				if old, ok := rows[slot]; ok {
					if removed, err := tbl.Delete(old.Clone()); err != nil || !removed {
						t.Fatalf("seed %d op %d: Delete(%s) = %v, %v", seed, op, old, removed, err)
					}
					drop(slot)
				}
			case k < 990:
				slot := int64(r.Intn(150))
				if _, err := tbl.DeleteByKey(NewTuple("log", Int(slot), Int(9), List())); err != nil {
					t.Fatal(err)
				}
				drop(slot)
			case k < 993:
				tbl.Clear()
				for slot := range rows {
					drop(slot)
				}
			default:
				dump := tbl.Tuples()
				if got, want := render(dump), render(sorted()); got != want {
					t.Fatalf("seed %d op %d: table holds\n%s\nmodel\n%s", seed, op, got, want)
				}
				tbl.Clear()
				for slot := range rows {
					drop(slot)
				}
				for _, tp := range dump {
					if _, _, err := tbl.Insert(tp.Clone()); err != nil {
						t.Fatal(err)
					}
					store(tp)
				}
			}
			for _, m := range models {
				if m.buckets == nil {
					if op < 40*len(m.cols) {
						continue // the index comes into being with rows already stored
					}
					m.buckets = map[string][]Tuple{}
					for _, tp := range sorted() {
						m.add(tp)
					}
				}
				g := Int(int64(r.Intn(2)))
				f := string(rune('a' + r.Intn(4))) // "d": no row has it
				vals, key := []Value{g}, g.String()
				switch len(m.cols) + m.cols[0] {
				case 1 + vc:
					vals, key = []Value{Str(f)}, f
				case 2 + 1:
					vals, key = []Value{g, Str(f)}, g.String()+"/"+f
				}
				want := append([]Tuple(nil), m.buckets[key]...)
				for _, tp := range m.unkeyed {
					if m.cols[0] != 1 || tp.Vals[1].Equal(g) {
						want = append(want, tp)
					}
				}
				if got := tbl.Match(m.cols, vals); render(got) != render(want) {
					t.Fatalf("seed %d op %d: Match(%v, %v) =\n%s\nmodel\n%s", seed, op, m.cols, vals, render(got), render(want))
				}
				maxBucket = max(maxBucket, len(m.buckets[key]))
			}
			for _, ix := range tbl.ixAll {
				tracked = tracked || ix.pos != nil
			}
		}
		if maxBucket <= posMapMin || !tracked {
			t.Fatalf("seed %d: largest bucket %d rows, slots tracked: %v — the stream never took a removal through a bucket past posMapMin",
				seed, maxBucket, tracked)
		}
	}
}

// TestBigBucketRemovalVisitsTwoRows is the scan-count guard of index
// removal: 10 000 removals from a 5 000-row bucket of a 2-value column
// key-compare at most 2 rows each (it was the whole bucket: 15 % of
// fs_sim's CPU went to removing a file from its parent directory's
// bucket), and leave the bucket, every time, in exactly the order
// swap-with-last leaves it.
func TestBigBucketRemovalVisitsTwoRows(t *testing.T) {
	decl := &TableDecl{Name: "file", Cols: []ColDecl{
		{Name: "Id", Type: KindInt},
		{Name: "Parent", Type: KindInt},
	}, KeyCols: []int{0}}
	tbl := NewTable(decl)
	var model []int64
	next := int64(0)
	insert := func(parent int64) {
		if _, _, err := tbl.Insert(NewTuple("file", Int(next), Int(parent))); err != nil {
			t.Fatal(err)
		}
		if parent == 7 {
			model = append(model, next)
		}
		next++
	}
	for i := 0; i < 5000; i++ {
		insert(7)
		if i%10 == 0 {
			insert(int64(100 + i)) // singleton buckets beside the big one
		}
	}
	cols, dir := []int{1}, []Value{Int(7)}
	if n := len(tbl.Match(cols, dir)); n != 5000 {
		t.Fatalf("bucket holds %d rows, want 5000", n)
	}
	ix := tbl.ensureIndex(cols)
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		at := r.Intn(len(model))
		before := tbl.removeCompares
		if removed, err := tbl.Delete(NewTuple("file", Int(model[at]), Int(7))); err != nil || !removed {
			t.Fatalf("removal %d: %v, %v", n, removed, err)
		}
		if d := tbl.removeCompares - before; d > 2 {
			t.Fatalf("removal %d from a %d-row bucket compared %d rows, want at most 2", n, len(model), d)
		}
		model[at] = model[len(model)-1]
		model = model[:len(model)-1]
		bucket := ix.buckets.get(hashVals(dir))
		if len(bucket) != len(model) {
			t.Fatalf("removal %d: bucket holds %d rows, model %d", n, len(bucket), len(model))
		}
		for i, id := range model {
			if bucket[i].Vals[0].AsInt() != id {
				t.Fatalf("removal %d: bucket[%d] is file %d, swap-with-last leaves %d there", n, i, bucket[i].Vals[0].AsInt(), id)
			}
		}
		insert(7)
		tbl.syncIndexes()
	}
}
