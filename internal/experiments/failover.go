package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/paxos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FailoverScenario selects which replica dies mid-workload.
type FailoverScenario int

// Scenarios, matching the paper's three availability lines.
const (
	FailNone FailoverScenario = iota
	FailBackup
	FailPrimary
)

func (s FailoverScenario) String() string {
	switch s {
	case FailBackup:
		return "backup killed"
	case FailPrimary:
		return "primary killed"
	}
	return "no failure"
}

// failoverRetryMS bounds how long the F2 client waits on one replica
// before resending to the next.
const failoverRetryMS = 3000

// FailoverParams sizes the F2 experiment.
type FailoverParams struct {
	Replicas  int
	DataNodes int
	Ops       int // metadata writes in the workload
	KillAtOp  int // which op index triggers the kill
	Seed      int64
}

// DefaultFailoverParams mirrors the paper's 3-replica setup.
func DefaultFailoverParams() FailoverParams {
	return FailoverParams{Replicas: 3, DataNodes: 4, Ops: 60, KillAtOp: 25, Seed: 7}
}

// FailoverRun is the outcome for one scenario.
type FailoverRun struct {
	Scenario  FailoverScenario
	OpCDF     *trace.CDF // per-op client-visible latency
	TotalMS   int64
	FailedOps int
	WorstOpMS int64
	LeaderIdx int
}

// FailoverResult is the full F2 set.
type FailoverResult struct {
	Params FailoverParams
	Runs   []FailoverRun
}

// RunFailover reproduces the availability figure: a stream of metadata
// writes against the Paxos-replicated BOOM-FS master, with no failure,
// a backup killed, or the primary killed mid-stream. The paper's claim:
// the job completes in all three cases, with a bounded hiccup on
// primary failure and near-zero cost on backup failure.
func RunFailover(p FailoverParams) (*FailoverResult, error) {
	res := &FailoverResult{Params: p}
	for _, sc := range []FailoverScenario{FailNone, FailBackup, FailPrimary} {
		run, err := runFailoverScenario(p, sc)
		if err != nil {
			return nil, fmt.Errorf("failover %v: %w", sc, err)
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

func runFailoverScenario(p FailoverParams, sc FailoverScenario) (*FailoverRun, error) {
	cfg := boomfs.DefaultConfig()
	cfg.OpTimeoutMS = 120_000
	pcfg := paxos.DefaultConfig()
	c := sim.NewCluster(sim.WithClusterSeed(p.Seed))
	rm, err := boomfs.NewReplicatedMaster(c, "master", p.Replicas, cfg, pcfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.DataNodes; i++ {
		if _, err := boomfs.NewReplicatedDataNode(c, fmt.Sprintf("dn:%d", i), rm, cfg); err != nil {
			return nil, err
		}
	}
	cl, err := boomfs.NewReplicatedClient(c, "client:0", cfg, rm)
	if err != nil {
		return nil, err
	}
	cl.RetryMS = failoverRetryMS
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		return nil, err
	}
	if err := cl.Mkdir("/bench"); err != nil {
		return nil, err
	}

	run := &FailoverRun{Scenario: sc, OpCDF: &trace.CDF{}}
	start := c.Now()
	for i := 0; i < p.Ops; i++ {
		if i == p.KillAtOp {
			switch sc {
			case FailBackup:
				c.Kill(rm.Replicas[len(rm.Replicas)-1])
			case FailPrimary:
				c.Kill(rm.Replicas[0])
			}
		}
		opStart := c.Now()
		err := cl.Create(fmt.Sprintf("/bench/f%04d", i))
		lat := c.Now() - opStart
		run.OpCDF.Add(lat)
		if lat > run.WorstOpMS {
			run.WorstOpMS = lat
		}
		if err != nil {
			run.FailedOps++
		}
	}
	run.TotalMS = c.Now() - start
	run.LeaderIdx = rm.LeaderIndex()
	return run, nil
}

// Report renders the three scenarios side by side.
func (r *FailoverResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d Paxos replicas, %d metadata writes, kill at op %d; simulated ms):\n\n",
		r.Params.Replicas, r.Params.Ops, r.Params.KillAtOp)
	b.WriteString("| scenario | op p50 | op p90 | worst op | total | failed | leader after |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d |\n",
			run.Scenario, run.OpCDF.Percentile(50), run.OpCDF.Percentile(90),
			run.WorstOpMS, run.TotalMS, run.FailedOps, run.LeaderIdx)
	}
	return b.String()
}
