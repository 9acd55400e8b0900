// Command boom-scale runs the scale-trajectory benchmark: the
// dense-vs-sparse scheduler microbenchmark (does per-step cost track
// active nodes or total nodes?) and open-loop workload sweeps (node
// count × arrival rate) over the FS-metadata, MapReduce, and KV
// scenarios, reporting latency CDFs per configuration. The output,
// BENCH_scale.json, is the repo artifact that tracks how far the
// simulated BOOM deployment scales.
//
// Usage:
//
//	boom-scale                       # print the report to stdout
//	boom-scale -out BENCH_scale.json
//	boom-scale -smoke                # tiny configs (CI gate)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/loadgen"
)

// SchedRow is one scheduler-microbenchmark configuration.
type SchedRow struct {
	Name string `json:"name"`
	loadgen.SchedResult
}

// WorkloadRow is one open-loop workload configuration.
type WorkloadRow struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"` // fs | mr | kv
	Rate     float64 `json:"rate_per_sec"`
	loadgen.RunStats
}

// Report is the BENCH_scale.json schema: measured rows plus a pinned
// baseline so the improvement this file documents stays legible
// without git archaeology.
type Report struct {
	Scheduler []SchedRow    `json:"scheduler"`
	Workloads []WorkloadRow `json:"workloads"`
	// Baseline pins the pre-rework scheduler numbers (O(total-nodes)
	// scan per step) measured on the same configurations.
	Baseline         map[string]loadgen.SchedResult `json:"baseline,omitempty"`
	TotalWallSeconds float64                        `json:"total_wall_seconds"`
}

// preReworkBaseline: measured with the pre-wake-index scheduler (every
// Step scanned all of c.order and polled NextWake per node), same
// configurations as the sched sweep below, same machine class as CI.
// The tell is the sparse pair: with 64 active nodes, going from 1k to
// 10k total nodes made each step ~58x more expensive (243us -> 14.1ms)
// because the scan visited every idle node twice per step.
var preReworkBaseline = map[string]loadgen.SchedResult{
	"sched/dense/n=1000/active=1000": {Nodes: 1000, Active: 1000, VirtualMS: 3000,
		Steps: 612, NodeSteps: 54313, WallSeconds: 0.874, NsPerStep: 1427866, NsPerNodeStep: 16089},
	"sched/sparse/n=1000/active=64": {Nodes: 1000, Active: 64, VirtualMS: 3000,
		Steps: 612, NodeSteps: 3481, WallSeconds: 0.149, NsPerStep: 243564, NsPerNodeStep: 42821},
	"sched/sparse/n=10000/active=64": {Nodes: 10000, Active: 64, VirtualMS: 3000,
		Steps: 612, NodeSteps: 3481, WallSeconds: 8.615, NsPerStep: 14077128, NsPerNodeStep: 2474922},
	"sched/dense/n=10000/active=10000": {Nodes: 10000, Active: 10000, VirtualMS: 1000,
		Steps: 217, NodeSteps: 184621, WallSeconds: 28.417, NsPerStep: 130955916, NsPerNodeStep: 153923},
}

func schedSweep(smoke bool) []loadgen.SchedConfig {
	if smoke {
		return []loadgen.SchedConfig{
			{Nodes: 200, Active: 200, VirtualMS: 500, Seed: 3},
			{Nodes: 200, Active: 8, VirtualMS: 500, Seed: 3},
		}
	}
	return []loadgen.SchedConfig{
		{Nodes: 1000, Active: 1000, VirtualMS: 3000, Seed: 3},
		{Nodes: 1000, Active: 64, VirtualMS: 3000, Seed: 3},
		{Nodes: 10000, Active: 64, VirtualMS: 3000, Seed: 3},
		{Nodes: 10000, Active: 10000, VirtualMS: 1000, Seed: 3},
	}
}

func schedName(cfg loadgen.SchedConfig) string {
	kind := "sparse"
	if cfg.Active == cfg.Nodes {
		kind = "dense"
	}
	return fmt.Sprintf("sched/%s/n=%d/active=%d", kind, cfg.Nodes, cfg.Active)
}

type workloadSpec struct {
	name string
	kind string
	rate float64
	run  func() (loadgen.RunStats, error)
}

func workloadSweep(smoke bool) []workloadSpec {
	fs := func(masters, clients, idle int, rate float64, ops int64) workloadSpec {
		// Trace decomposes the latency CDF into queue/serve/network in
		// the report's breakdown column.
		cfg := loadgen.FSConfig{Masters: masters, Clients: clients, IdleNodes: idle,
			Mix: loadgen.DefaultFSMix(), Seed: 7, Rate: rate, Ops: ops,
			MasterServiceMS: 1, Trace: true}
		return workloadSpec{
			name: fmt.Sprintf("fs/masters=%d/idle=%d/rate=%.0f", masters, idle, rate),
			kind: "fs", rate: rate,
			run: func() (loadgen.RunStats, error) { return loadgen.RunFS(cfg) },
		}
	}
	mr := func(trackers, idle int, rate float64, jobs int64) workloadSpec {
		cfg := loadgen.MRConfig{Trackers: trackers, IdleNodes: idle, Seed: 7,
			Rate: rate, Jobs: jobs, SplitsPerJob: 4, Reduces: 2, BytesPerSplit: 512}
		return workloadSpec{
			name: fmt.Sprintf("mr/trackers=%d/idle=%d/rate=%.1f", trackers, idle, rate),
			kind: "mr", rate: rate,
			run: func() (loadgen.RunStats, error) { return loadgen.RunMR(cfg) },
		}
	}
	kv := func(replicas int, rate float64, ops int64) workloadSpec {
		cfg := loadgen.KVConfig{Replicas: replicas, Seed: 7, Rate: rate, Ops: ops}
		return workloadSpec{
			name: fmt.Sprintf("kv/replicas=%d/rate=%.0f", replicas, rate),
			kind: "kv", rate: rate,
			run: func() (loadgen.RunStats, error) { return loadgen.RunKV(cfg) },
		}
	}
	if smoke {
		return []workloadSpec{
			fs(2, 2, 4, 200, 100),
			mr(3, 0, 2, 4),
			kv(3, 50, 50),
		}
	}
	return []workloadSpec{
		// FS metadata at two arrival rates, then with a larger idle
		// population to show sparse scaling on a real workload.
		fs(4, 4, 0, 100, 2000),
		fs(4, 4, 0, 500, 2000),
		fs(4, 4, 1000, 500, 2000),
		// MR job stream at two rates.
		mr(8, 0, 0.5, 20),
		mr(8, 0, 2, 20),
		// Replicated KV puts at two rates.
		kv(3, 50, 500),
		kv(3, 200, 500),
	}
}

func main() {
	out := flag.String("out", "", "write the JSON report to this path (default stdout)")
	smoke := flag.Bool("smoke", false, "tiny configurations: checks the sweeps still run, numbers not meaningful")
	flag.Parse()

	start := time.Now()
	rep := Report{Baseline: preReworkBaseline}

	for _, cfg := range schedSweep(*smoke) {
		res, err := loadgen.RunSched(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boom-scale: %s: %v\n", schedName(cfg), err)
			os.Exit(1)
		}
		rep.Scheduler = append(rep.Scheduler, SchedRow{Name: schedName(cfg), SchedResult: res})
		fmt.Fprintf(os.Stderr, "%-34s %s\n", schedName(cfg), res)
	}

	for _, spec := range workloadSweep(*smoke) {
		res, err := spec.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "boom-scale: %s: %v\n", spec.name, err)
			os.Exit(1)
		}
		rep.Workloads = append(rep.Workloads, WorkloadRow{
			Name: spec.name, Workload: spec.kind, Rate: spec.rate, RunStats: res})
		fmt.Fprintf(os.Stderr, "%-34s %s\n", spec.name, res)
	}

	rep.TotalWallSeconds = time.Since(start).Seconds()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "boom-scale: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "boom-scale: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
