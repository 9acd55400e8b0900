package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RuleProfileParams sizes the fixpoint-profiler run.
type RuleProfileParams struct {
	DataNodes int
	Ops       int
	Seed      int64
}

// DefaultRuleProfileParams profiles the same metadata workload T2
// measures, at a size where the hot rules separate clearly.
func DefaultRuleProfileParams() RuleProfileParams {
	return RuleProfileParams{DataNodes: 3, Ops: 500, Seed: 11}
}

// RuleProfileResult is the per-rule profile of a BOOM-FS master under a
// metadata workload, plus one provenance DAG as a worked example of the
// lineage the same run captured.
type RuleProfileResult struct {
	Params RuleProfileParams
	Rules  []overlog.RuleProfile
	Strata []overlog.StratumProfile
	Sample string
}

// RunRuleProfile drives a create-heavy metadata workload against a
// simulated master with the per-rule profiler and lineage capture on,
// and returns where the fixpoint time went. This is what `make profile`
// regenerates alongside the Go pprof profile: the Overlog-level view
// (which rules, which strata) next to the Go-level one.
func RunRuleProfile(p RuleProfileParams) (*RuleProfileResult, error) {
	cfg := boomfs.DefaultConfig()
	c := sim.NewCluster(sim.WithClusterSeed(p.Seed), sim.WithProvenance(256))
	rt, err := c.AddNode("master:0")
	if err != nil {
		return nil, err
	}
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		return nil, err
	}
	if _, err := boomfs.NewMasterOnRuntime(rt, cfg); err != nil {
		return nil, err
	}
	rt.SetProfiling(true)
	for i := 0; i < p.DataNodes; i++ {
		if _, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), "master:0", cfg); err != nil {
			return nil, err
		}
	}
	cl, err := boomfs.NewClient(c, "client:0", cfg, "master:0")
	if err != nil {
		return nil, err
	}
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		return nil, err
	}
	if err := cl.Mkdir("/bench"); err != nil {
		return nil, err
	}
	for i := 0; i < p.Ops; i++ {
		if err := cl.Create(fmt.Sprintf("/bench/f%04d", i)); err != nil {
			return nil, err
		}
	}

	res := &RuleProfileResult{Params: p}
	res.Rules = rt.RuleProfiles()
	sort.SliceStable(res.Rules, func(i, j int) bool {
		if res.Rules[i].WallNS != res.Rules[j].WallNS {
			return res.Rules[i].WallNS > res.Rules[j].WallNS
		}
		return res.Rules[i].Fires > res.Rules[j].Fires
	})
	res.Strata = rt.StratumProfiles()
	roots, err := provenance.WhyPattern(rt, `file(_, _, "bench", _)`, provenance.Options{
		Peers:   c.Runtimes(),
		TraceID: telemetry.TraceIDOf,
	})
	if err == nil && len(roots) > 0 {
		res.Sample = provenance.Format(roots[0])
	}
	return res, nil
}

// Report renders the profile hottest-first, with the iteration
// histograms and the sample lineage.
func (r *RuleProfileResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== per-rule fixpoint profile ==\n")
	fmt.Fprintf(&b, "   (%d metadata creates against one master, %d datanodes)\n\n",
		r.Params.Ops, r.Params.DataNodes)
	fmt.Fprintf(&b, "%-28s %-16s %5s %10s %10s %10s %10s %12s\n",
		"rule", "program", "strat", "evals", "alt_evals", "fires", "retracted", "wall")
	for _, p := range r.Rules {
		if p.Evals == 0 && p.Retracted == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-28s %-16s %5d %10d %10d %10d %10d %12s\n",
			p.Rule, p.Program, p.Stratum, p.Evals, p.AltEvals, p.Fires, p.Retracted, time.Duration(p.WallNS))
	}
	fmt.Fprintf(&b, "\nstratum fixpoint iterations (buckets %s):\n",
		strings.Join(overlog.IterBuckets[:], " | "))
	for _, s := range r.Strata {
		var hist []string
		for _, n := range s.Hist {
			hist = append(hist, fmt.Sprintf("%d", n))
		}
		fmt.Fprintf(&b, "  s%-3d steps=%-8d iters=%-8d max=%-4d [%s]\n",
			s.Stratum, s.Steps, s.Iters, s.Max, strings.Join(hist, " "))
	}
	if r.Sample != "" {
		fmt.Fprintf(&b, "\nsample lineage (why does /bench exist?):\n%s", r.Sample)
	}
	return b.String()
}
