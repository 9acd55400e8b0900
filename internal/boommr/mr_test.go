package boommr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testMR builds a jobtracker and n tasktrackers.
func testMR(t *testing.T, n int, policy Policy, cfg MRConfig) (*sim.Cluster, *JobTracker, []*TaskTracker, *Registry) {
	t.Helper()
	c := sim.NewCluster()
	reg := NewRegistry()
	jt, err := NewJobTracker(c, "jt:0", policy, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	var tts []*TaskTracker
	for i := 0; i < n; i++ {
		tt, err := NewTaskTracker(c, fmt.Sprintf("tt:%d", i), jt.Addr, cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		tts = append(tts, tt)
	}
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		t.Fatal(err)
	}
	return c, jt, tts, reg
}

func corpus(nSplits int) []string {
	splits := make([]string, nSplits)
	for i := range splits {
		splits[i] = strings.Repeat("the quick brown fox jumps over the lazy dog ", 20)
	}
	return splits
}

func TestWordCountEndToEnd(t *testing.T) {
	_, jt, _, _ := testMR(t, 4, FIFO, DefaultMRConfig())
	job := NewJob(jt.NewJobID(), corpus(8), 3, WordCountMap, WordCountReduce)
	jt.Submit(job)
	done, err := jt.Wait(job.ID, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("job did not finish; state=%q", jt.JobState(job.ID))
	}
	out := job.Output()
	if out["the"] != "320" { // 2 per sentence * 20 * 8 splits
		t.Fatalf("wordcount: the=%q (output size %d)", out["the"], len(out))
	}
	if out["fox"] != "160" {
		t.Fatalf("wordcount: fox=%q", out["fox"])
	}
	comps := jt.Completions(job.ID)
	if len(comps) != 11 { // 8 maps + 3 reduces
		t.Fatalf("completions: %d", len(comps))
	}
	// Reduces complete after all maps (barrier scheduling).
	var lastMap, firstRed int64
	for _, tc := range comps {
		if tc.Type == "map" && tc.DoneAt > lastMap {
			lastMap = tc.DoneAt
		}
		if tc.Type == "reduce" && (firstRed == 0 || tc.DoneAt < firstRed) {
			firstRed = tc.DoneAt
		}
	}
	if firstRed <= lastMap {
		t.Fatalf("reduce finished (%d) before last map (%d)", firstRed, lastMap)
	}
}

func TestTwoJobsFIFOOrder(t *testing.T) {
	cfg := DefaultMRConfig()
	_, jt, _, _ := testMR(t, 2, FIFO, cfg)
	j1 := NewJob(jt.NewJobID(), corpus(6), 1, WordCountMap, WordCountReduce)
	j2 := NewJob(jt.NewJobID(), corpus(6), 1, WordCountMap, WordCountReduce)
	jt.Submit(j1)
	jt.Submit(j2)
	done, err := jt.Wait(j2.ID, 900_000)
	if err != nil || !done {
		t.Fatalf("jobs did not finish: %v %v", done, err)
	}
	d1, _ := jt.JobDoneAt(j1.ID)
	d2, _ := jt.JobDoneAt(j2.ID)
	if d1 == 0 || d2 == 0 || d1 > d2 {
		t.Fatalf("FIFO order violated: job1 done %d, job2 done %d", d1, d2)
	}
}

func TestGrepJob(t *testing.T) {
	_, jt, _, _ := testMR(t, 3, FIFO, DefaultMRConfig())
	splits := []string{
		"error: disk on fire\nok: fine\nerror: more fire",
		"ok: all good\nwarning: meh",
		"error: third",
	}
	job := NewJob(jt.NewJobID(), splits, 2, GrepMap("error"), IdentityReduce)
	jt.Submit(job)
	done, err := jt.Wait(job.ID, 300_000)
	if err != nil || !done {
		t.Fatalf("grep job: %v %v", done, err)
	}
	if len(job.Output()) != 3 {
		t.Fatalf("grep output: %v", job.Output())
	}
}

func TestSlotCapacityRespected(t *testing.T) {
	cfg := DefaultMRConfig()
	cfg.MapSlots = 1
	cfg.RedSlots = 1
	_, jt, tts, _ := testMR(t, 1, FIFO, cfg)
	job := NewJob(jt.NewJobID(), corpus(5), 1, WordCountMap, WordCountReduce)
	jt.Submit(job)
	done, err := jt.Wait(job.ID, 900_000)
	if err != nil || !done {
		t.Fatalf("single-slot job: %v %v", done, err)
	}
	if tts[0].MapsRun != 5 || tts[0].RedsRun != 1 {
		t.Fatalf("tracker ran %d maps %d reds", tts[0].MapsRun, tts[0].RedsRun)
	}
}

func TestTrackerDeathReassignsTasks(t *testing.T) {
	cfg := DefaultMRConfig()
	c, jt, tts, _ := testMR(t, 3, FIFO, cfg)
	// Long tasks so the victim dies mid-flight.
	big := make([]string, 6)
	for i := range big {
		big[i] = strings.Repeat("words here ", 3000)
	}
	job := NewJob(jt.NewJobID(), big, 1, WordCountMap, WordCountReduce)
	jt.Submit(job)
	// Let some tasks start, then kill a tracker.
	if err := c.Run(c.Now() + 2*cfg.SchedTickMS + 50); err != nil {
		t.Fatal(err)
	}
	c.Kill(tts[0].Addr)
	done, err := jt.Wait(job.ID, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("job stuck after tracker death; state=%q", jt.JobState(job.ID))
	}
	if job.Output()["words"] != "18000" {
		t.Fatalf("output wrong after failover: %q", job.Output()["words"])
	}
}

// TestDeadTrackersHoldNoFreeSlots: once every tracker has been silent
// past TrackerTTL, no free slot is left to list. The free lists are
// views over tracker_live, which the scheduling tick expires; an
// aggregate that compared heartbeat stamps with now() itself would keep
// its last count until some tracker row changed again.
func TestDeadTrackersHoldNoFreeSlots(t *testing.T) {
	cfg := DefaultMRConfig()
	c, jt, tts, _ := testMR(t, 2, FIFO, cfg)
	if n := jt.Runtime().Table("free_maps").Len(); n != 1 {
		t.Fatalf("free_maps has %d rows before the kill, want 1", n)
	}
	for _, tt := range tts {
		c.Kill(tt.Addr)
	}
	if err := c.Run(c.Now() + cfg.TrackerTTL + 3*cfg.SchedTickMS); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"free_maps", "free_reds"} {
		if rows := jt.Runtime().Table(tbl).Tuples(); len(rows) != 0 {
			t.Errorf("%s with every tracker dead: %v", tbl, rows)
		}
	}
}

func TestLATESpeculatesOnStraggler(t *testing.T) {
	cfg := DefaultMRConfig()
	c, jt, tts, _ := testMR(t, 4, LATE, cfg)
	// One contaminated tracker, 8x slower.
	tts[0].Slowdown = 8.0
	big := make([]string, 8)
	for i := range big {
		big[i] = strings.Repeat("straggle much ", 2000)
	}
	job := NewJob(jt.NewJobID(), big, 1, WordCountMap, WordCountReduce)
	jt.Submit(job)
	done, err := jt.Wait(job.ID, 2_000_000)
	if err != nil || !done {
		t.Fatalf("LATE job: %v %v state=%q", done, err, jt.JobState(job.ID))
	}
	if jt.SpeculativeAttempts(job.ID) == 0 {
		t.Fatal("LATE never speculated despite an 8x straggler")
	}
	_ = c
}

// TestLATEBeatsFIFOWithStraggler is the shape check behind the paper's
// speculative-scheduling figure: with a contaminated node, LATE should
// finish the job faster than FIFO.
func TestLATEBeatsFIFOWithStraggler(t *testing.T) {
	run := func(policy Policy) int64 {
		cfg := DefaultMRConfig()
		_, jt, tts, _ := testMR(t, 4, policy, cfg)
		tts[0].Slowdown = 8.0
		big := make([]string, 8)
		for i := range big {
			big[i] = strings.Repeat("straggle much ", 2000)
		}
		job := NewJob(jt.NewJobID(), big, 1, WordCountMap, WordCountReduce)
		jt.Submit(job)
		done, err := jt.Wait(job.ID, 3_000_000)
		if err != nil || !done {
			t.Fatalf("%v job: %v %v", policy, done, err)
		}
		doneAt, _ := jt.JobDoneAt(job.ID)
		return doneAt
	}
	fifo := run(FIFO)
	late := run(LATE)
	if late >= fifo {
		t.Fatalf("LATE (%dms) not faster than FIFO (%dms) with straggler", late, fifo)
	}
}

func TestEmptyReduceJob(t *testing.T) {
	_, jt, _, _ := testMR(t, 2, FIFO, DefaultMRConfig())
	job := NewJob(jt.NewJobID(), []string{"only one split"}, 1, WordCountMap, WordCountReduce)
	jt.Submit(job)
	done, err := jt.Wait(job.ID, 300_000)
	if err != nil || !done {
		t.Fatalf("tiny job: %v %v", done, err)
	}
	if job.Output()["split"] != "1" {
		t.Fatalf("output: %v", job.Output())
	}
}
