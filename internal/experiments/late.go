package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boommr"
	"repro/internal/mrbase"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// LatePolicy enumerates the schedulers compared in F4.
type LatePolicy int

// Policies under comparison.
const (
	PolicyFIFONoSpec LatePolicy = iota // BOOM-MR FIFO rules, no speculation
	PolicyBoomLATE                     // BOOM-MR with the LATE rule set
	PolicyBaseSpec                     // imperative Hadoop-style speculation
)

func (p LatePolicy) String() string {
	switch p {
	case PolicyBoomLATE:
		return "BOOM-MR LATE"
	case PolicyBaseSpec:
		return "Hadoop spec (base)"
	}
	return "BOOM-MR FIFO"
}

// LateParams sizes the F4 experiment.
type LateParams struct {
	TaskTrackers  int
	NumSplits     int
	BytesPerSplit int
	NumReduce     int
	Plan          workload.StragglerPlan
	Seed          int64
}

// DefaultLateParams mirrors the paper's one-contaminated-node setup.
func DefaultLateParams() LateParams {
	return LateParams{TaskTrackers: 10, NumSplits: 20, BytesPerSplit: 64 << 10,
		NumReduce: 4, Plan: workload.OneStraggler(8), Seed: 5}
}

// LateRun is one policy's outcome.
type LateRun struct {
	Policy      LatePolicy
	JobMS       int64
	MapCDF      *trace.CDF
	Speculative int
}

// LateResult is the F4 comparison.
type LateResult struct {
	Params LateParams
	Runs   []LateRun
}

// RunLate reproduces the speculative-scheduling figure: a wordcount on
// a cluster with contaminated (slow) nodes, under plain FIFO, BOOM-MR's
// declarative LATE policy, and the imperative baseline's speculation.
func RunLate(p LateParams) (*LateResult, error) {
	res := &LateResult{Params: p}
	for _, pol := range []LatePolicy{PolicyFIFONoSpec, PolicyBoomLATE, PolicyBaseSpec} {
		run, err := runLatePolicy(p, pol)
		if err != nil {
			return nil, fmt.Errorf("late %v: %w", pol, err)
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

func runLatePolicy(p LateParams, pol LatePolicy) (*LateRun, error) {
	c := sim.NewCluster(sim.WithClusterSeed(p.Seed))
	cfg := boommr.DefaultMRConfig()
	reg := boommr.NewRegistry()
	var sched scheduler
	switch pol {
	case PolicyFIFONoSpec:
		jt, err := boommr.NewJobTracker(c, "jt:0", boommr.FIFO, cfg, reg)
		if err != nil {
			return nil, err
		}
		sched = jt
	case PolicyBoomLATE:
		jt, err := boommr.NewJobTracker(c, "jt:0", boommr.LATE, cfg, reg)
		if err != nil {
			return nil, err
		}
		sched = jt
	case PolicyBaseSpec:
		jt, err := mrbase.NewJobTracker(c, "jt:0", true, cfg, reg)
		if err != nil {
			return nil, err
		}
		sched = jt
	}
	for i := 0; i < p.TaskTrackers; i++ {
		tt, err := boommr.NewTaskTracker(c, fmt.Sprintf("tt:%d", i), "jt:0", cfg, reg)
		if err != nil {
			return nil, err
		}
		if p.Plan.IsSlow(i) {
			tt.Slowdown = p.Plan.Slowdown
		}
	}
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		return nil, err
	}

	splits := workload.Corpus(p.Seed, p.NumSplits, p.BytesPerSplit)
	job := boommr.NewJob(sched.NewJobID(), splits, p.NumReduce,
		boommr.WordCountMap, boommr.WordCountReduce)
	start := c.Now()
	sched.Submit(job)
	done, err := sched.Wait(job.ID, 7_200_000)
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("job did not complete")
	}
	doneAt, _ := sched.JobDoneAt(job.ID)
	run := &LateRun{Policy: pol, JobMS: doneAt - start, MapCDF: &trace.CDF{},
		Speculative: sched.SpeculativeAttempts(job.ID)}
	for _, tc := range sched.Completions(job.ID) {
		if tc.Type == "map" {
			run.MapCDF.Add(tc.DoneAt - start)
		}
	}
	return run, nil
}

// Report renders the comparison.
func (r *LateResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d trackers, %d contaminated at %.0f× slowdown, %d splits × %d KB; simulated ms):\n\n",
		r.Params.TaskTrackers, len(r.Params.Plan.SlowIdx), r.Params.Plan.Slowdown,
		r.Params.NumSplits, r.Params.BytesPerSplit>>10)
	b.WriteString("| policy | job | map p50 | map p90 | map max (tail) | speculative attempts |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d |\n",
			run.Policy, run.JobMS, run.MapCDF.Percentile(50),
			run.MapCDF.Percentile(90), run.MapCDF.Max(), run.Speculative)
	}
	return b.String()
}
