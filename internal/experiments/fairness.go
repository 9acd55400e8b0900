package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boommr"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FairnessParams sizes the A1 ablation (scheduling-policy design
// choice: this reproduction's FAIR extension vs the paper's FIFO).
type FairnessParams struct {
	TaskTrackers  int
	Jobs          int
	SplitsPerJob  int
	BytesPerSplit int
	Seed          int64
}

// DefaultFairnessParams: several equal jobs contending for few slots.
func DefaultFairnessParams() FairnessParams {
	return FairnessParams{TaskTrackers: 2, Jobs: 3, SplitsPerJob: 6,
		BytesPerSplit: 32 << 10, Seed: 17}
}

// FairnessRun is one policy's outcome.
type FairnessRun struct {
	Policy    boommr.Policy
	JobDoneAt []int64 // per job, time since submission
	MeanMS    float64
	SpreadMS  int64 // last job done - first job done
}

// FairnessResult is the A1 comparison.
type FairnessResult struct {
	Params FairnessParams
	Runs   []FairnessRun
}

// RunFairness submits several identical jobs simultaneously and
// compares FIFO's serialized completion against FAIR's interleaving.
func RunFairness(p FairnessParams) (*FairnessResult, error) {
	res := &FairnessResult{Params: p}
	for _, pol := range []boommr.Policy{boommr.FIFO, boommr.FAIR} {
		run, err := runFairness(p, pol)
		if err != nil {
			return nil, fmt.Errorf("fairness %v: %w", pol, err)
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

func runFairness(p FairnessParams, pol boommr.Policy) (*FairnessRun, error) {
	c := sim.NewCluster(sim.WithClusterSeed(p.Seed))
	cfg := boommr.DefaultMRConfig()
	cfg.MapSlots = 1
	cfg.RedSlots = 1
	reg := boommr.NewRegistry()
	jt, _, err := boommr.Deploy(c, p.TaskTrackers, pol, cfg, reg)
	if err != nil {
		return nil, err
	}
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		return nil, err
	}

	var jobs []*boommr.Job
	start := c.Now()
	for i := 0; i < p.Jobs; i++ {
		splits := workload.Corpus(p.Seed+int64(i), p.SplitsPerJob, p.BytesPerSplit)
		job := boommr.NewJob(jt.NewJobID(), splits, 1,
			boommr.WordCountMap, boommr.WordCountReduce)
		jt.Submit(job)
		jobs = append(jobs, job)
	}
	run := &FairnessRun{Policy: pol}
	for _, job := range jobs {
		done, err := jt.Wait(job.ID, 7_200_000)
		if err != nil {
			return nil, err
		}
		if !done {
			return nil, fmt.Errorf("job %d stuck", job.ID)
		}
	}
	var first, last int64
	for i, job := range jobs {
		at, _ := jt.JobDoneAt(job.ID)
		rel := at - start
		run.JobDoneAt = append(run.JobDoneAt, rel)
		run.MeanMS += float64(rel)
		if i == 0 || rel < first {
			first = rel
		}
		if rel > last {
			last = rel
		}
	}
	run.MeanMS /= float64(p.Jobs)
	run.SpreadMS = last - first
	return run, nil
}

// Report renders the ablation.
func (r *FairnessResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d identical jobs submitted together, %d single-slot trackers; simulated ms):\n\n",
		r.Params.Jobs, r.Params.TaskTrackers)
	b.WriteString("| policy | per-job completion | mean | spread |\n|---|---|---:|---:|\n")
	for _, run := range r.Runs {
		times := make([]string, len(run.JobDoneAt))
		for i, v := range run.JobDoneAt {
			times[i] = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&b, "| %v | %s | %.0f | %d |\n",
			run.Policy, strings.Join(times, ", "), run.MeanMS, run.SpreadMS)
	}
	return b.String()
}
