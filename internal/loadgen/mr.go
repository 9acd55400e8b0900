package loadgen

import (
	"fmt"

	"repro/internal/boommr"
	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MRConfig describes one open-loop MapReduce job-submission run:
// wordcount jobs arrive at the JobTracker on the arrival process, and
// an operation completes when the scheduler derives job_done_at.
type MRConfig struct {
	Trackers      int     `json:"trackers"`
	IdleNodes     int     `json:"idle_nodes"`
	Seed          int64   `json:"seed"`
	Rate          float64 `json:"rate_per_sec"` // job arrivals per second
	Fixed         bool    `json:"fixed_rate,omitempty"`
	Jobs          int64   `json:"jobs"`
	SplitsPerJob  int     `json:"splits_per_job"`
	Reduces       int     `json:"reduces"`
	BytesPerSplit int     `json:"bytes_per_split"`
	TimeoutMS     int64   `json:"timeout_ms"`
}

func (cfg *MRConfig) defaults() {
	if cfg.Trackers <= 0 {
		cfg.Trackers = 4
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 20
	}
	if cfg.SplitsPerJob <= 0 {
		cfg.SplitsPerJob = 4
	}
	if cfg.Reduces <= 0 {
		cfg.Reduces = 2
	}
	if cfg.BytesPerSplit <= 0 {
		cfg.BytesPerSplit = 512
	}
	if cfg.TimeoutMS <= 0 {
		cfg.TimeoutMS = 120_000
	}
}

// RunMR executes one open-loop MR run against a FIFO JobTracker.
func RunMR(cfg MRConfig) (RunStats, error) {
	cfg.defaults()
	c := sim.NewCluster(sim.WithClusterSeed(cfg.Seed))

	mrc := boommr.DefaultMRConfig()
	reg := boommr.NewRegistry()
	jt, err := boommr.NewJobTracker(c, "jt:0", boommr.FIFO, mrc, reg)
	if err != nil {
		return RunStats{}, err
	}
	for i := 0; i < cfg.Trackers; i++ {
		if _, err := boommr.NewTaskTracker(c, fmt.Sprintf("tt:%d", i), jt.Addr, mrc, reg); err != nil {
			return RunStats{}, err
		}
	}
	if err := AddIdleNodes(c, "idle", cfg.IdleNodes); err != nil {
		return RunStats{}, err
	}

	var gen *Generator
	rt := jt.Runtime()
	if err := rt.AddWatch("job_done_at", "i"); err != nil {
		return RunStats{}, err
	}
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if gen != nil && ev.Insert && ev.Tuple.Table == "job_done_at" {
			gen.Complete(fmt.Sprintf("job:%d", ev.Tuple.Vals[0].AsInt()), ev.Time)
		}
	})

	// Warm-up: let trackers heartbeat in before jobs arrive.
	if err := c.Run(mrc.HeartbeatMS*2 + 10); err != nil {
		return RunStats{}, err
	}

	splits := workload.Corpus(cfg.Seed, cfg.SplitsPerJob, cfg.BytesPerSplit)
	issue := func(i int64) (string, error) {
		job := boommr.NewJob(jt.NewJobID(), splits, cfg.Reduces,
			boommr.WordCountMap, boommr.WordCountReduce)
		jt.Submit(job)
		return fmt.Sprintf("job:%d", job.ID), nil
	}

	gen = NewGenerator(c, cfg.arrivals(), cfg.Seed+1, cfg.Jobs, cfg.TimeoutMS, issue)
	res, err := gen.Run(c.Now()+1, c.Now()+horizon(cfg.Jobs, cfg.Rate, cfg.TimeoutMS))
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{Result: res, Nodes: len(c.Nodes()), Steps: c.Steps()}, nil
}

func (cfg MRConfig) arrivals() Arrivals {
	if cfg.Fixed {
		return FixedRate(cfg.Rate)
	}
	return Poisson(cfg.Rate)
}
