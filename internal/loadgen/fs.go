package loadgen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/chaos"
	"repro/internal/overlog"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// idleProgram is the cheapest possible node: one rule, no periodics,
// no facts — after install its NextWake is -1 forever, so under the
// event-driven scheduler it costs nothing unless something pokes it.
// Idle nodes stand in for the quiescent bulk of a large cluster.
const idleProgram = `
	program idle;
	event poke(N: int);
	table poked(N: int) keys(0);
	ri poked(N) :- poke(N);
`

// AddIdleNodes populates c with n quiescent nodes (named prefix:0..).
func AddIdleNodes(c *sim.Cluster, prefix string, n int) error {
	for i := 0; i < n; i++ {
		rt, err := c.AddNode(fmt.Sprintf("%s:%d", prefix, i))
		if err != nil {
			return err
		}
		if err := rt.InstallSource(idleProgram); err != nil {
			return err
		}
	}
	return nil
}

// FSMix is the composition of the metadata stream, as fractions that
// should sum to 1 (create absorbs any remainder, and is forced while
// the client has no files to read/move/remove).
type FSMix struct {
	Create float64 `json:"create"`
	Read   float64 `json:"read"` // exists lookup — the metadata read
	Mv     float64 `json:"mv"`
	Rm     float64 `json:"rm"`
}

// DefaultFSMix is a write-heavy metadata mix, matching the paper's
// create-dominated HDFS benchmark.
func DefaultFSMix() FSMix { return FSMix{Create: 0.5, Read: 0.3, Mv: 0.1, Rm: 0.1} }

// FSConfig describes one open-loop FS-metadata run.
type FSConfig struct {
	Masters   int     `json:"masters"`
	Clients   int     `json:"clients"`
	IdleNodes int     `json:"idle_nodes"`
	Mix       FSMix   `json:"mix"`
	Seed      int64   `json:"seed"`
	Rate      float64 `json:"rate_per_sec"`
	Fixed     bool    `json:"fixed_rate,omitempty"` // fixed-rate arrivals instead of Poisson
	Ops       int64   `json:"ops"`
	TimeoutMS int64   `json:"timeout_ms"`
	// MasterServiceMS charges each metadata request this much master
	// CPU (the M/D/1 service-time model); 0 leaves masters infinitely
	// fast and latency purely network-bound.
	MasterServiceMS int64 `json:"master_service_ms"`
	// Trace arms per-request root spans plus the sim's send/recv/rules
	// spans, and fills RunStats.Breakdown with the queue/serve/network
	// decomposition of the latency distribution.
	Trace bool `json:"trace,omitempty"`
	// SLOBoundP99MS, when positive, declares a p99 SLO: completion
	// latencies are swept into sys::metric windows (SLOWindowMS wide,
	// default 1000) on the first client's runtime, where the Overlog
	// SLO monitor judges them; breached windows are counted in
	// RunStats.SLOViolations and surface in sys::invariant.
	SLOBoundP99MS int64 `json:"slo_bound_p99_ms,omitempty"`
	SLOWindowMS   int64 `json:"slo_window_ms,omitempty"`
}

// RunStats couples a generator Result with scheduler-cost accounting
// for the benchmark report.
type RunStats struct {
	Result
	Nodes int   `json:"nodes"`
	Steps int64 `json:"sched_steps"`
	// Breakdown decomposes latency into queue/serve/network components
	// (Trace runs only).
	Breakdown *LatencyBreakdown `json:"breakdown,omitempty"`
	// SLOViolations counts windows the Overlog SLO monitor judged over
	// bound (SLOBoundP99MS runs only).
	SLOViolations int `json:"slo_violations,omitempty"`
}

func (cfg *FSConfig) defaults() {
	if cfg.Masters <= 0 {
		cfg.Masters = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	if cfg.TimeoutMS <= 0 {
		cfg.TimeoutMS = 30_000
	}
}

func (cfg FSConfig) arrivals() Arrivals {
	if cfg.Fixed {
		return FixedRate(cfg.Rate)
	}
	return Poisson(cfg.Rate)
}

// horizon bounds a run: time to issue every op at the nominal rate,
// plus a generous completion window.
func horizon(ops int64, rate float64, timeoutMS int64) int64 {
	issue := int64(float64(ops) / rate * 1000)
	return issue + 2*timeoutMS + 60_000
}

// RunFS executes one FS-metadata workload: hash-partitioned masters,
// open-loop clients issuing a create/read/mv/rm mix, completion
// detected by watching each client's resp_log table.
func RunFS(cfg FSConfig) (RunStats, error) {
	cfg.defaults()
	opts := []sim.Option{sim.WithClusterSeed(cfg.Seed)}
	if cfg.MasterServiceMS > 0 {
		svc := cfg.MasterServiceMS
		opts = append(opts, sim.WithServiceTime(func(node, table string) int64 {
			if table == "request" && strings.HasPrefix(node, "fsm:") {
				return svc
			}
			return 0
		}))
	}
	var tracer *telemetry.Tracer
	if cfg.Trace {
		// Generous cap: every request contributes an op span plus a
		// send, a recv and a rules span per hop; undersizing silently
		// drops the oldest.
		tracer = telemetry.NewTracer(int(cfg.Ops)*16 + 1024)
		opts = append(opts, sim.WithTracer(tracer))
	}
	c := sim.NewCluster(opts...)

	fscfg := boomfs.DefaultConfig()
	fscfg.OpTimeoutMS = cfg.TimeoutMS
	_, addrs, err := partition.NewMasters(c, "fsm", cfg.Masters, fscfg)
	if err != nil {
		return RunStats{}, err
	}

	var gen *Generator
	var sloRT *overlog.Runtime // first client's runtime hosts the SLO monitor
	fss := make([]*partition.FS, cfg.Clients)
	for i := range fss {
		cl, err := boomfs.NewClient(c, fmt.Sprintf("lc:%d", i), fscfg, addrs...)
		if err != nil {
			return RunStats{}, err
		}
		fs, err := partition.NewFS(cl, addrs)
		if err != nil {
			return RunStats{}, err
		}
		fss[i] = fs
		rt := cl.Runtime()
		if i == 0 {
			sloRT = rt
		}
		if err := rt.AddWatch("resp_log", "i"); err != nil {
			return RunStats{}, err
		}
		rt.RegisterWatcher(func(ev overlog.WatchEvent) {
			if gen != nil && ev.Insert && ev.Tuple.Table == "resp_log" {
				gen.Complete(ev.Tuple.Vals[0].AsString(), ev.Time)
			}
		})
	}
	if err := AddIdleNodes(c, "idle", cfg.IdleNodes); err != nil {
		return RunStats{}, err
	}

	// Warm-up: the shared working directory, created synchronously on
	// every partition before the open-loop stream starts.
	if err := fss[0].Mkdir("/load"); err != nil {
		return RunStats{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	created := make([][]string, cfg.Clients) // per-client live paths
	var nfiles int64
	issue := func(i int64) (string, error) {
		ci := int(i) % cfg.Clients
		fs, live := fss[ci], created[ci]
		x := rng.Float64()
		m := cfg.Mix
		switch {
		case x < m.Create || len(live) == 0:
			nfiles++
			p := fmt.Sprintf("/load/c%d-f%06d", ci, nfiles)
			created[ci] = append(live, p)
			return fs.SendAsync("create", p, ""), nil
		case x < m.Create+m.Read:
			return fs.SendAsync("exists", live[rng.Intn(len(live))], ""), nil
		case x < m.Create+m.Read+m.Mv:
			idx := rng.Intn(len(live))
			old := live[idx]
			// mv must stay on the owning shard: the master that holds
			// the file validates and re-keys it, so the new name has to
			// hash to the same partition. Search suffixes until one
			// does (expected tries ≈ number of partitions).
			owner := fs.MasterFor(old)
			for k := 0; k < 256; k++ {
				np := fmt.Sprintf("%s.m%d", old, k)
				if fs.MasterFor(np) == owner {
					live[idx] = np
					return fs.SendAsync("mv", old, np), nil
				}
			}
			// Astronomically unlikely; degrade to a read.
			return fs.SendAsync("exists", old, ""), nil
		default:
			idx := rng.Intn(len(live))
			p := live[idx]
			created[ci] = append(live[:idx], live[idx+1:]...)
			return fs.SendAsync("rm", p, ""), nil
		}
	}

	gen = NewGenerator(c, cfg.arrivals(), cfg.Seed+1, cfg.Ops, cfg.TimeoutMS, issue)
	if tracer != nil {
		gen.SetTracer(tracer, func(i int64) string {
			return fmt.Sprintf("lc:%d", int(i)%cfg.Clients)
		})
	}
	sloWin := cfg.SLOWindowMS
	if sloWin <= 0 {
		sloWin = 1000
	}
	if cfg.SLOBoundP99MS > 0 {
		if err := chaos.InstallSLOMonitor(sloRT, map[string]int64{
			"fs_p99": cfg.SLOBoundP99MS,
		}); err != nil {
			return RunStats{}, err
		}
		StartSLOSweep(c, gen, "lc:0", "loadgen", "fs", sloWin)
	}
	res, err := gen.Run(c.Now()+1, c.Now()+horizon(cfg.Ops, cfg.Rate, cfg.TimeoutMS))
	if err != nil {
		return RunStats{}, err
	}
	if cfg.SLOBoundP99MS > 0 {
		// The run stops the instant the last op resolves; step one more
		// window so the sweep judges the tail completions too.
		if _, err := c.RunUntil(func() bool { return false }, c.Now()+sloWin+1); err != nil {
			return RunStats{}, err
		}
	}
	stats := RunStats{Result: res, Nodes: len(c.Nodes()), Steps: c.Steps()}
	if tracer != nil {
		bd := BreakdownSpans(tracer)
		stats.Breakdown = &bd
	}
	if cfg.SLOBoundP99MS > 0 {
		if tbl := sloRT.Table("slo_violation"); tbl != nil {
			stats.SLOViolations = tbl.Len()
		}
	}
	return stats, nil
}
