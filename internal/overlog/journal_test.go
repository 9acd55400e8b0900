package overlog

import (
	"bytes"
	"testing"
)

func TestJournalRecordReplay(t *testing.T) {
	const src = `
		table kv(K: string, V: int) keys(0);
		event bump(K: string);
		r1 next kv(K, V + 1) :- bump(K), kv(K, V);
	`
	rt := NewRuntime("n1")
	mustInstall(t, rt, src)
	var log bytes.Buffer
	j := NewJournal(&log, "kv")
	if err := j.Attach(rt); err != nil {
		t.Fatal(err)
	}
	rt.Step(1, []Tuple{NewTuple("kv", Str("a"), Int(0)), NewTuple("kv", Str("b"), Int(10))})
	rt.Step(2, []Tuple{NewTuple("bump", Str("a"))})
	rt.Step(3, nil) // deferred bump applies: a -> 1 (delete+insert in journal)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Records() < 3 {
		t.Fatalf("records: %d", j.Records())
	}

	rt2 := NewRuntime("n2")
	mustInstall(t, rt2, src)
	applied, err := ReplayJournal(rt2, bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if applied != j.Records() {
		t.Fatalf("applied %d of %d", applied, j.Records())
	}
	if rt2.Table("kv").Dump() != rt.Table("kv").Dump() {
		t.Fatalf("replayed state differs:\n%s\nvs\n%s",
			rt2.Table("kv").Dump(), rt.Table("kv").Dump())
	}
}

func TestJournalDeletesReplayed(t *testing.T) {
	const src = `
		table kv(K: string, V: int) keys(0);
		event del(K: string);
		d1 delete kv(K, V) :- del(K), kv(K, V);
	`
	rt := NewRuntime("n1")
	mustInstall(t, rt, src)
	var log bytes.Buffer
	j := NewJournal(&log, "kv")
	if err := j.Attach(rt); err != nil {
		t.Fatal(err)
	}
	rt.Step(1, []Tuple{NewTuple("kv", Str("x"), Int(1)), NewTuple("kv", Str("y"), Int(2))})
	rt.Step(2, []Tuple{NewTuple("del", Str("x"))})
	j.Flush()

	rt2 := NewRuntime("n2")
	mustInstall(t, rt2, src)
	if _, err := ReplayJournal(rt2, bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rt2.Table("kv").Len() != 1 || !rt2.Table("kv").Contains(NewTuple("kv", Str("y"), Int(2))) {
		t.Fatalf("replay: %s", rt2.Table("kv").Dump())
	}
}

// TestJournalTornTail: a crash mid-record must not poison replay; the
// complete prefix applies.
func TestJournalTornTail(t *testing.T) {
	rt := NewRuntime("n1")
	mustInstall(t, rt, `table kv(K: string, V: int) keys(0);`)
	var log bytes.Buffer
	j := NewJournal(&log, "kv")
	if err := j.Attach(rt); err != nil {
		t.Fatal(err)
	}
	rt.Step(1, []Tuple{NewTuple("kv", Str("a"), Int(1)), NewTuple("kv", Str("b"), Int(2))})
	j.Flush()
	data := log.Bytes()
	torn := data[:len(data)-3]

	rt2 := NewRuntime("n2")
	mustInstall(t, rt2, `table kv(K: string, V: int) keys(0);`)
	applied, err := ReplayJournal(rt2, bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if applied != 1 || rt2.Table("kv").Len() != 1 {
		t.Fatalf("applied %d, kv %d", applied, rt2.Table("kv").Len())
	}
}

// TestSnapshotPlusJournal is the full FsImage+EditLog recovery story:
// checkpoint, keep journaling, crash, restore checkpoint, replay tail.
func TestSnapshotPlusJournal(t *testing.T) {
	const src = `table kv(K: string, V: int) keys(0) durable;`
	rt := NewRuntime("n1")
	mustInstall(t, rt, src)
	rt.Step(1, []Tuple{NewTuple("kv", Str("a"), Int(1))})

	var image bytes.Buffer
	if err := rt.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	j := NewJournal(&tail, "kv")
	if err := j.Attach(rt); err != nil {
		t.Fatal(err)
	}
	rt.Step(2, []Tuple{NewTuple("kv", Str("b"), Int(2))})
	rt.Step(3, []Tuple{NewTuple("kv", Str("a"), Int(9))}) // overwrite
	j.Flush()

	rec := NewRuntime("recovered")
	mustInstall(t, rec, src)
	if err := rec.RestoreSnapshot(bytes.NewReader(image.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(rec, bytes.NewReader(tail.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rec.Table("kv").Dump() != rt.Table("kv").Dump() {
		t.Fatalf("recovery mismatch:\n%s\nvs\n%s",
			rec.Table("kv").Dump(), rt.Table("kv").Dump())
	}
}
