package overlog

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	const src = `
		table kv(K: string, V: int) keys(0) durable;
		table tags(K: string, L: list) keys(0) durable;
		event ping(N: int);
	`
	rt := NewRuntime("n1")
	mustInstall(t, rt, src)
	rt.Step(1, []Tuple{
		NewTuple("kv", Str("a"), Int(1)),
		NewTuple("kv", Str("b"), Int(2)),
		NewTuple("tags", Str("a"), List(Str("x"), Int(9))),
		NewTuple("ping", Int(5)), // events must not be captured
	})

	var buf bytes.Buffer
	if err := rt.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	rt2 := NewRuntime("n2")
	mustInstall(t, rt2, src)
	if err := rt2.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rt2.Table("kv").Dump() != rt.Table("kv").Dump() {
		t.Fatalf("kv mismatch:\n%s\nvs\n%s", rt2.Table("kv").Dump(), rt.Table("kv").Dump())
	}
	if rt2.Table("tags").Dump() != rt.Table("tags").Dump() {
		t.Fatal("tags mismatch")
	}
	if rt2.Table("ping").Len() != 0 {
		t.Fatal("event table captured in snapshot")
	}
}

// TestSnapshotSeedsDerivations: restored base tuples drive rules on the
// next step, rebuilding derived views.
func TestSnapshotSeedsDerivations(t *testing.T) {
	const src = `
		table edge(A: int, B: int) keys(0,1) durable;
		table reach(A: int, B: int) keys(0,1);
		r1 reach(A, B) :- edge(A, B);
		r2 reach(A, C) :- edge(A, B), reach(B, C);
	`
	rt := NewRuntime("n1")
	mustInstall(t, rt, src)
	rt.Step(1, []Tuple{
		NewTuple("edge", Int(1), Int(2)),
		NewTuple("edge", Int(2), Int(3)),
	})

	var buf bytes.Buffer
	if err := rt.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt2 := NewRuntime("n2")
	mustInstall(t, rt2, src)
	if err := rt2.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// One step to run the restored deltas through the rules.
	rt2.Step(1, nil)
	if rt2.Table("reach").Dump() != rt.Table("reach").Dump() {
		t.Fatalf("derived view not rebuilt:\n%s\nvs\n%s",
			rt2.Table("reach").Dump(), rt.Table("reach").Dump())
	}
}

func TestRestoreErrors(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `table t(A: int) keys(0) durable; table other(A: int) keys(0);`)
	if err := rt.RestoreSnapshot(strings.NewReader("garbage")); err == nil {
		t.Fatal("expected bad-magic error")
	}
	// Snapshot with a table the target doesn't declare.
	src := NewRuntime("src")
	if err := src.InstallSource(`table other(A: int) keys(0) durable;`); err != nil {
		t.Fatal(err)
	}
	src.Step(1, []Tuple{NewTuple("other", Int(1))})
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The target declares other, but not durable.
	if err := rt.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), `"other" is not declared durable`) {
		t.Fatalf("got %v, want a not-durable error naming other", err)
	}
	// A tuple whose arity is not the table's, here 1<<62: an error, not
	// an allocation sized by the file.
	corrupt := []byte("OLGSNAP1\x01\x01t\x01")
	corrupt = binary.AppendUvarint(corrupt, 1<<62)
	if err := rt.RestoreSnapshot(bytes.NewReader(corrupt)); err == nil ||
		!strings.Contains(err.Error(), "arity") {
		t.Fatalf("got %v, want an arity error", err)
	}
	// A field that claims 512 MiB the image does not hold: an error
	// without allocating what it claims.
	huge := binary.AppendUvarint([]byte("OLGSNAP1\x01"), 1<<29)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := rt.RestoreSnapshot(bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Fatalf("got %v after allocating %d bytes, want an error and under 1 MiB",
			err, after.TotalAlloc-before.TotalAlloc)
	}
}

func TestSnapshotEmptyRuntime(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `table t(A: int) keys(0) durable;`)
	var buf bytes.Buffer
	if err := rt.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt2 := NewRuntime("n2")
	mustInstall(t, rt2, `table t(A: int) keys(0) durable;`)
	if err := rt2.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rt2.Table("t").Len() != 0 {
		t.Fatal("unexpected tuples")
	}
}
