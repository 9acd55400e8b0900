package loadgen

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// SchedConfig describes one scheduler-cost microbenchmark run: Active
// nodes carry periodic traffic while Nodes-Active sit idle. Active
// nodes get slightly different periodic intervals (base + i mod 13) so
// their wake instants decorrelate after the first fire — the sparse
// regime where most steps touch a handful of nodes, which is exactly
// what the event-driven scheduler must make cheap.
type SchedConfig struct {
	Nodes          int   `json:"nodes"`
	Active         int   `json:"active"`
	BaseIntervalMS int64 `json:"base_interval_ms"`
	VirtualMS      int64 `json:"virtual_ms"`
	Seed           int64 `json:"seed"`
}

// SchedResult reports scheduler cost for one configuration. NsPerStep
// is the wall cost of advancing the cluster one virtual instant;
// NsPerNodeStep divides by the node fixpoints actually run. A
// scheduler whose idle nodes are free shows NsPerStep independent of
// Nodes at fixed Active; the O(total)-scan scheduler does not.
type SchedResult struct {
	Nodes         int     `json:"nodes"`
	Active        int     `json:"active"`
	VirtualMS     int64   `json:"virtual_ms"`
	Steps         int64   `json:"steps"`
	NodeSteps     int64   `json:"node_steps"`
	WallSeconds   float64 `json:"wall_seconds"`
	NsPerStep     float64 `json:"ns_per_step"`
	NsPerNodeStep float64 `json:"ns_per_node_step"`
}

func (r SchedResult) String() string {
	return fmt.Sprintf("nodes=%d active=%d steps=%d node_steps=%d wall=%.3fs ns/step=%.0f ns/node_step=%.0f",
		r.Nodes, r.Active, r.Steps, r.NodeSteps, r.WallSeconds, r.NsPerStep, r.NsPerNodeStep)
}

const activeProgram = `
	program activetick;
	periodic tick interval %d;
	table seen(K: int, T: int) keys(0);
	ra seen(0, T) :- tick(_, T);
`

// RunSched executes one scheduler microbenchmark.
func RunSched(cfg SchedConfig) (SchedResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 100
	}
	if cfg.Active <= 0 || cfg.Active > cfg.Nodes {
		cfg.Active = cfg.Nodes
	}
	if cfg.BaseIntervalMS <= 0 {
		cfg.BaseIntervalMS = 50
	}
	if cfg.VirtualMS <= 0 {
		cfg.VirtualMS = 3000
	}
	c := sim.NewCluster(sim.WithClusterSeed(cfg.Seed))
	for i := 0; i < cfg.Active; i++ {
		rt, err := c.AddNode(fmt.Sprintf("act:%d", i))
		if err != nil {
			return SchedResult{}, err
		}
		interval := cfg.BaseIntervalMS + int64(i%13)
		if err := rt.InstallSource(fmt.Sprintf(activeProgram, interval)); err != nil {
			return SchedResult{}, err
		}
	}
	if err := AddIdleNodes(c, "idle", cfg.Nodes-cfg.Active); err != nil {
		return SchedResult{}, err
	}

	wall := time.Now() //boomvet:allow(walltime) reporting only: measures scheduler wall cost for BENCH_scale
	if err := c.Run(cfg.VirtualMS); err != nil {
		return SchedResult{}, err
	}
	elapsed := time.Since(wall) //boomvet:allow(walltime) reporting only: measures scheduler wall cost for BENCH_scale

	var nodeSteps int64
	for _, rt := range c.Runtimes() {
		nodeSteps += rt.StepCount()
	}
	res := SchedResult{
		Nodes:       cfg.Nodes,
		Active:      cfg.Active,
		VirtualMS:   cfg.VirtualMS,
		Steps:       c.Steps(),
		NodeSteps:   nodeSteps,
		WallSeconds: elapsed.Seconds(),
	}
	if res.Steps > 0 {
		res.NsPerStep = float64(elapsed.Nanoseconds()) / float64(res.Steps)
	}
	if res.NodeSteps > 0 {
		res.NsPerNodeStep = float64(elapsed.Nanoseconds()) / float64(res.NodeSteps)
	}
	return res, nil
}
