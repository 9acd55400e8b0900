package overlog

import (
	"fmt"
	"os"
	"testing"
)

// loadJobTracker installs BOOM-MR's JobTracker with the FIFO policy from
// the rule files in ../boommr (that package imports this one, so its
// tests cannot be imported back), with eight trackers heartbeating in
// at time 1, after the first scheduling tick, every map slot in use.
func loadJobTracker(t *testing.T) *Runtime {
	t.Helper()
	rt := NewRuntime("jt:0")
	for _, file := range []string{"protocol", "jobtracker", "fifo"} {
		src, err := os.ReadFile("../boommr/" + file + ".olg")
		if err != nil {
			t.Fatal(err)
		}
		mustInstall(t, rt, string(src))
	}
	var hbs []Tuple
	for i := 0; i < 8; i++ {
		hbs = append(hbs, NewTuple("tt_hb", Addr("jt:0"), Addr(fmt.Sprintf("tt:%d", i)),
			Int(2), Int(1), Int(2), Int(1)))
	}
	for now, in := range [][]Tuple{nil, hbs} {
		if _, err := rt.Step(int64(now), in); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// TestSchedTickVisitsNoRunningAttempt is the visit-count guard of
// tf1/tf2, which lead with the dead trackers: with none dead, a
// scheduling tick over 1 000 running attempts hands scan ops at most 2
// more candidate rows than a tick over 10. Led by the running attempts,
// as they were, the two rules visited every one on every tick, 2 000
// rows for no fire.
func TestSchedTickVisitsNoRunningAttempt(t *testing.T) {
	tick := func(attempts int) int64 {
		rt := loadJobTracker(t)
		var in []Tuple
		for i := 0; i < attempts; i++ {
			in = append(in, NewTuple("task", Int(1), Int(int64(i)), Str("map"), Str("running")),
				NewTuple("attempt", Int(1), Int(int64(i)), Int(int64(i)), Addr(fmt.Sprintf("tt:%d", i%8)),
					Str("running"), Float(0.5), Int(2), Int(0)))
		}
		if _, err := rt.Step(2, in); err != nil {
			t.Fatal(err)
		}
		before := rt.scanRows
		if _, err := rt.Step(100, nil); err != nil { // the second tick
			t.Fatal(err)
		}
		if rt.Table("attempt").Len() != attempts {
			t.Fatalf("the tick lost attempts:\n%s", rt.Table("attempt").Dump())
		}
		return rt.scanRows - before
	}
	small, large := tick(10), tick(1000)
	if large > small+2 {
		t.Fatalf("a tick over 1000 running attempts visited %d rows, over 10 it visited %d: want within 2", large, small)
	}
	t.Logf("a tick visits %d rows over 10 running attempts, %d over 1000", small, large)
}

// TestPendingTaskVisitsOneList is the visit-count guard of the sorted
// pending lists: inserting one pending map task beside 1 000 others
// hands scan ops at most 3 000 candidate rows. pm1 re-reads the
// pending maps once to rebuild its list; as a count<> over a self-join
// it ranked every pending task against every other, about 10^6 rows.
func TestPendingTaskVisitsOneList(t *testing.T) {
	rt := loadJobTracker(t)
	var in []Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, NewTuple("task_submit", Addr("jt:0"), Int(1), Int(int64(i)), Str("map")))
	}
	if _, err := rt.Step(2, in); err != nil {
		t.Fatal(err)
	}
	before := rt.scanRows
	if _, err := rt.Step(3, []Tuple{NewTuple("task_submit", Addr("jt:0"), Int(2), Int(0), Str("map"))}); err != nil {
		t.Fatal(err)
	}
	if n := rt.scanRows - before; n > 3000 {
		t.Fatalf("one new pending task visited %d rows, want at most 3000", n)
	}
	if got := rt.Table("pending_maps").Tuples(); len(got) != 1 || len(got[0].Vals[1].AsList()) != 1001 {
		t.Fatalf("pending_maps does not list the 1001 tasks: %v", got)
	}
	t.Logf("one new pending task visits %d rows", rt.scanRows-before)
}
