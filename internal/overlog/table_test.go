package overlog

import (
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
