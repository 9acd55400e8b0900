package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/boommr"
	"repro/internal/overlog"
)

// mrParams shapes the MapReduce scenario.
type mrParams struct {
	trackers int
	splits   int
	reduces  int
}

// MapReduce runs a wordcount job over a tasktracker fleet that
// crash-restarts and churns mid-job. The jobtracker's failure-handling
// rules (tf1/tf2: requeue tasks whose tracker's heartbeats lapse) must
// drive the job to completion with the exact sequential answer —
// anything else is a violation.
func MapReduce() Scenario {
	p := mrParams{trackers: 3, splits: 8, reduces: 2}
	return simScenario("mr", p.schedule, p.body)
}

func (p mrParams) schedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	tt := func(i int) string { return fmt.Sprintf("tt:%d", i) }
	v1 := rng.Intn(p.trackers)
	v2 := (v1 + 1 + rng.Intn(p.trackers-1)) % p.trackers
	// One tracker crash-restarts (fresh runtime, zero slots in use); a
	// second is killed and later revived (runtime survives, resumes
	// mid-heartbeat). The jobtracker itself stays up. A loss burst
	// stresses the assignment/ack exchange.
	return Schedule{
		{AtMS: 2000 + int64(rng.Intn(2000)), Kind: CrashRestart,
			Node: tt(v1), DurMS: 3000 + int64(rng.Intn(2000))},
		{AtMS: 8000 + int64(rng.Intn(2000)), Kind: Kill, Node: tt(v2)},
		{AtMS: 15000 + int64(rng.Intn(2000)), Kind: Revive, Node: tt(v2)},
		{AtMS: 20000 + int64(rng.Intn(2000)), Kind: LossBurst,
			Rate: 0.05 + rng.Float64()*0.05, DurMS: 1500},
	}
}

func (p mrParams) body(c Env, _ int64, sched Schedule) error {
	cfg := boommr.DefaultMRConfig()
	jt, _, err := boommr.Deploy(c, p.trackers, boommr.FIFO, cfg, boommr.NewRegistry())
	if err != nil {
		return err
	}
	if err := sched.Apply(c); err != nil {
		return err
	}
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		return err
	}

	// 8 splits x 20 sentences x 2 "the" per sentence = 320.
	splits := make([]string, p.splits)
	for i := range splits {
		splits[i] = strings.Repeat("the quick brown fox jumps over the lazy dog ", 20)
	}
	job := boommr.NewJob(jt.NewJobID(), splits, p.reduces, boommr.WordCountMap, boommr.WordCountReduce)
	jt.Submit(job)

	done, err := jt.Wait(job.ID, 600_000)
	if err != nil {
		return err
	}
	record := func(inv, detail string) {
		v := Violation{Inv: inv, Node: jt.Addr, TimeMS: c.Now(), Detail: detail}
		c.RunOn(jt.Addr, func(rt *overlog.Runtime) { RecordViolation(rt, v) })
	}
	want := fmt.Sprintf("%d", 2*20*p.splits)
	if !done {
		record("mr-completion", fmt.Sprintf("job %d not done after 600s; state=%q", job.ID, jt.JobState(job.ID)))
	} else if got := job.Output()["the"]; got != want {
		record("mr-output", fmt.Sprintf("wordcount[the] = %q, want %q", got, want))
	}

	// Let the rest of the schedule play out (a fast job can finish
	// before the last fault fires).
	if end := sched.End() + 2000; end > c.Now() {
		if err := c.Run(end); err != nil {
			return err
		}
	}
	return nil
}
