package overlog

import (
	"bytes"
	"fmt"
	"testing"
)

const maxSrc = `
	table ballot(K: string, B: int max) keys(0);
	table cursor(K: string, S: int max) keys(0) durable;
	table passed(S: int);
	event lower(B: int);
	event lower_next(S: int);
	l1 ballot("b", B) :- lower(B);
	l2 next cursor("c", S) :- lower_next(S);
	p1 passed(S) :- cursor("c", S);
	ballot("b", 200);
	cursor("c", 7);
`

// maxValue reads the max column of a one-row table.
func maxValue(t *testing.T, rt *Runtime, table string) int64 {
	t.Helper()
	var got []Tuple
	rt.Table(table).Scan(func(tp Tuple) bool { got = append(got, tp); return true })
	if len(got) != 1 {
		t.Fatalf("%s holds %v, want one row", table, got)
	}
	return got[0].Vals[1].AsInt()
}

// TestMaxWritesBelowTheStoredRowAreNoOps writes a smaller ballot and a
// smaller cursor through an external insert, a rule and a next head.
// Each is a no-op: no watch event, no change, and no step scheduled to
// apply it. A larger value, and only a larger one, replaces the row.
func TestMaxWritesBelowTheStoredRowAreNoOps(t *testing.T) {
	rt := NewRuntime("n1", WithWatchAll())
	mustInstall(t, rt, maxSrc)
	var events []string
	rt.RegisterWatcher(func(ev WatchEvent) {
		if ev.Tuple.Table == "ballot" || ev.Tuple.Table == "cursor" {
			events = append(events, fmt.Sprintf("%v %s", ev.Insert, ev.Tuple))
		}
	})
	if _, err := rt.Step(1, nil); err != nil {
		t.Fatal(err)
	}
	for i, in := range [][]Tuple{
		{NewTuple("ballot", Str("b"), Int(101)), NewTuple("cursor", Str("c"), Int(3))},
		{NewTuple("ballot", Str("b"), Int(200)), NewTuple("cursor", Str("c"), Int(7))},
		{NewTuple("lower", Int(101))},
		{NewTuple("lower_next", Int(3))},
		{NewTuple("lower_next", Int(7))},
	} {
		if _, err := rt.Step(int64(2+i), in); err != nil {
			t.Fatal(err)
		}
		if w := rt.NextWake(); w != -1 {
			t.Errorf("write %d %v scheduled a step at %d", i, in, w)
		}
	}
	if len(events) != 0 {
		t.Errorf("covered writes raised watch events %v", events)
	}
	if b, c := maxValue(t, rt, "ballot"), maxValue(t, rt, "cursor"); b != 200 || c != 7 {
		t.Errorf("ballot %d, cursor %d after smaller writes, want 200, 7", b, c)
	}

	if _, err := rt.Step(10, []Tuple{NewTuple("lower", Int(300)), NewTuple("lower_next", Int(9))}); err != nil {
		t.Fatal(err)
	}
	if rt.NextWake() != 11 {
		t.Fatalf("a larger next head scheduled no step (next wake %d)", rt.NextWake())
	}
	if _, err := rt.Step(11, nil); err != nil {
		t.Fatal(err)
	}
	if b, c := maxValue(t, rt, "ballot"), maxValue(t, rt, "cursor"); b != 300 || c != 9 {
		t.Errorf("ballot %d, cursor %d after larger writes, want 300, 9", b, c)
	}
	if len(events) != 4 {
		t.Errorf("larger writes raised %v, want a displacement and an insert each", events)
	}
}

// TestMaxSameStepWritesMergeInAnyOrder inserts two values for one key
// in one step, in both orders: the larger is stored, and rules fire on
// it alone, since the smaller leaves the delta when it is displaced.
func TestMaxSameStepWritesMergeInAnyOrder(t *testing.T) {
	for _, order := range [][2]int64{{5, 12}, {12, 5}} {
		rt := NewRuntime("n1")
		mustInstall(t, rt, maxSrc)
		in := []Tuple{NewTuple("cursor", Str("c"), Int(order[0])), NewTuple("cursor", Str("c"), Int(order[1]))}
		if _, err := rt.Step(1, in); err != nil {
			t.Fatal(err)
		}
		if c := maxValue(t, rt, "cursor"); c != 12 {
			t.Errorf("order %v: cursor %d, want 12", order, c)
		}
		if got := rt.Table("passed").Dump(); got != "passed(12)" {
			t.Errorf("order %v: passed %q, want only the larger cursor", order, got)
		}
	}
}

// TestMaxSeedDisplacedByRestore installs a seed row, then restores an
// image whose row dominates it, as a replica restart does: the seed
// leaves the pending delta, so the first step's rules see only the
// restored row.
func TestMaxSeedDisplacedByRestore(t *testing.T) {
	prev := NewRuntime("n1")
	mustInstall(t, prev, maxSrc)
	if _, err := prev.Step(1, []Tuple{NewTuple("cursor", Str("c"), Int(40))}); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := prev.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	fresh := NewRuntime("n1")
	mustInstall(t, fresh, maxSrc)
	if err := fresh.RestoreSnapshot(&image); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Step(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Table("passed").Dump(); got != "passed(40)" {
		t.Errorf("passed %q after the restore, want only the restored cursor", got)
	}
}

// TestMaxColumnDifferential runs the max-column program of the
// differential pool over seeded 12-step streams through
// differentialRun's two evaluators, which must agree after every step.
func TestMaxColumnDifferential(t *testing.T) {
	fires := map[string]int64{}
	for seed := int64(1); seed <= 25; seed++ {
		differentialRun(t, diffProgramNamed("max-column"), seed, 12, func(semi *Runtime) {
			for name, n := range firesByRule(semi) {
				fires[name] += n
			}
		})
	}
	for _, rule := range []string{"b1", "b2", "b3", "h1"} {
		if fires[rule] == 0 {
			t.Errorf("rule %s never fired", rule)
		}
	}
}
