package live

import (
	"strings"
	"testing"

	"repro/internal/boommr"
	"repro/internal/telemetry"
)

// runWordCount deploys a JobTracker and three trackers on a live
// cluster, lets slow (if set) change the trackers before they boot,
// runs one wordcount job over splits and returns the job and the
// number of speculative attempts the scheduler launched for it.
func runWordCount(t *testing.T, policy boommr.Policy, slow func([]*boommr.TaskTracker), splits []string, reduces int) (*boommr.Job, int) {
	t.Helper()
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	cfg := boommr.DefaultMRConfig()
	jt, tts, err := boommr.Deploy(lc, 3, policy, cfg, boommr.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if slow != nil {
		slow(tts)
	}
	if err := lc.Run(2 * cfg.HeartbeatMS); err != nil {
		t.Fatal(err)
	}
	job := boommr.NewJob(jt.NewJobID(), splits, reduces, boommr.WordCountMap, boommr.WordCountReduce)
	jt.Submit(job)
	if done, err := jt.Wait(job.ID, 600_000); err != nil || !done {
		t.Fatalf("job %d: done=%v err=%v state=%q", job.ID, done, err, jt.JobState(job.ID))
	}
	return job, jt.SpeculativeAttempts(job.ID)
}

// TestRealTCPWordCount runs the Overlog JobTracker and three trackers
// over real TCP sockets on the cluster's virtual clock.
func TestRealTCPWordCount(t *testing.T) {
	splits := make([]string, 6)
	for i := range splits {
		splits[i] = strings.Repeat("real sockets real rules ", 40)
	}
	job, _ := runWordCount(t, boommr.FIFO, nil, splits, 2)
	if got := job.Output()["real"]; got != "480" {
		t.Fatalf("wordcount[real] = %q, want 480", got)
	}
}

// TestRealTCPLATE: straggler mitigation over TCP. Tracker 0 runs 20x
// slow; LATE speculates its attempts elsewhere and the job's answer is
// unchanged.
func TestRealTCPLATE(t *testing.T) {
	splits := make([]string, 6)
	for i := range splits {
		splits[i] = strings.Repeat("slow and steady ", 60)
	}
	job, spec := runWordCount(t, boommr.LATE, func(tts []*boommr.TaskTracker) { tts[0].Slowdown = 20 }, splits, 1)
	if got := job.Output()["steady"]; got != "360" {
		t.Fatalf("wordcount[steady] = %q, want 360", got)
	}
	if spec == 0 {
		t.Fatal("LATE launched no speculative attempt past the 20x straggler")
	}
}

// TestSubmitBeforeRun: a job submitted before the cluster's first Run
// waits for the boot, as the simulator's queue holds it, instead of
// being dropped at a node that is not up yet.
func TestSubmitBeforeRun(t *testing.T) {
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	jt, _, err := boommr.Deploy(lc, 2, boommr.FIFO, boommr.DefaultMRConfig(), boommr.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	job := boommr.NewJob(jt.NewJobID(), []string{"early early bird", "early worm"}, 1, boommr.WordCountMap, boommr.WordCountReduce)
	jt.Submit(job)
	if done, err := jt.Wait(job.ID, 600_000); err != nil || !done {
		t.Fatalf("job %d: done=%v err=%v state=%q", job.ID, done, err, jt.JobState(job.ID))
	}
	if got := job.Output()["early"]; got != "3" {
		t.Fatalf("wordcount[early] = %q, want 3", got)
	}
}
