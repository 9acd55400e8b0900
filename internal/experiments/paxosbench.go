package experiments

import (
	"fmt"
	"strings"

	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PaxosParams sizes the F5 experiment.
type PaxosParams struct {
	ReplicaCounts []int
	Commands      int
	Seed          int64
}

// DefaultPaxosParams sweeps 3 and 5 replicas.
func DefaultPaxosParams() PaxosParams {
	return PaxosParams{ReplicaCounts: []int{1, 3, 5}, Commands: 40, Seed: 13}
}

// PaxosPoint is one replica-count's outcome.
type PaxosPoint struct {
	Replicas   int
	TotalMS    int64
	Throughput float64 // decided commands per simulated second
	LatCDF     *trace.CDF
}

// PaxosResult is the F5 sweep.
type PaxosResult struct {
	Params PaxosParams
	Points []PaxosPoint
}

// RunPaxosBench reproduces the availability-cost microbenchmark:
// command latency and throughput of the Overlog Paxos log as the
// replica group grows (the price BOOM-FS pays for a replicated master).
func RunPaxosBench(p PaxosParams) (*PaxosResult, error) {
	res := &PaxosResult{Params: p}
	for _, n := range p.ReplicaCounts {
		pt, err := runPaxosPoint(p, n)
		if err != nil {
			return nil, fmt.Errorf("paxos %d replicas: %w", n, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func runPaxosPoint(p PaxosParams, n int) (*PaxosPoint, error) {
	c := sim.NewCluster(sim.WithClusterSeed(p.Seed))
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("px:%d", i))
	}
	cfg := paxos.DefaultConfig()
	for _, m := range members {
		rt := c.MustAddNode(m)
		if err := paxos.Install(rt, m, members, cfg); err != nil {
			return nil, err
		}
	}
	if err := c.Run(500); err != nil {
		return nil, err
	}

	pt := &PaxosPoint{Replicas: n, LatCDF: &trace.CDF{}}
	leader := members[0]
	start := c.Now()
	// Closed loop: one outstanding command at a time, measuring commit
	// latency at the leader.
	for i := 0; i < p.Commands; i++ {
		reqID := fmt.Sprintf("cmd%05d", i)
		cmd := overlog.List(overlog.Str(reqID), overlog.Str("payload"))
		sent := c.Now()
		c.Inject(leader, overlog.NewTuple("paxos_request",
			overlog.Addr(leader), overlog.Str(reqID), cmd), 0)
		want := i + 1
		met, err := c.RunUntil(func() bool {
			return c.Node(leader).Table("decided").Len() >= want
		}, c.Now()+60_000)
		if err != nil {
			return nil, err
		}
		if !met {
			return nil, fmt.Errorf("command %d never decided", i)
		}
		pt.LatCDF.Add(c.Now() - sent)
	}
	pt.TotalMS = c.Now() - start
	if pt.TotalMS > 0 {
		pt.Throughput = float64(p.Commands) / (float64(pt.TotalMS) / 1000)
	}
	return pt, nil
}

// Report renders the sweep.
func (r *PaxosResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d closed-loop commands through the Overlog Paxos log; simulated ms):\n\n", r.Params.Commands)
	b.WriteString("| replicas | total | throughput | commit p50 | commit p90 | commit max |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "| %d | %d | %.1f/s | %d | %d | %d |\n",
			pt.Replicas, pt.TotalMS, pt.Throughput,
			pt.LatCDF.Percentile(50), pt.LatCDF.Percentile(90), pt.LatCDF.Max())
	}
	return b.String()
}
