package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MonitoringParams sizes the T2 experiment.
type MonitoringParams struct {
	DataNodes int
	Ops       int
	Seed      int64
}

// DefaultMonitoringParams mirrors the paper's tracing-overhead check.
func DefaultMonitoringParams() MonitoringParams {
	return MonitoringParams{DataNodes: 3, Ops: 1000, Seed: 3}
}

// monMode selects one T2 configuration.
type monMode int

const (
	monOff      monMode = iota // no instrumentation at all
	monWatch                   // metaprogrammed watch-all tuple tracing
	monRegistry                // production telemetry registry + event ring
)

// MonitoringRun is one configuration's outcome. Simulated time is
// identical by construction (instrumentation does not alter the
// protocol), so the overhead shows up in WallNS — the real CPU cost of
// evaluating the same workload with the hooks attached.
type MonitoringRun struct {
	Label       string
	TotalMS     int64 // simulated
	WallNS      int64 // real
	OpP50       int64
	Derivations int64
	TraceEvents int64

	// Samples is the telemetry registry snapshot after the run
	// (registry configuration only) — the numbers /metrics would serve.
	Samples []telemetry.Sample
}

// MonitoringResult is the T2 table.
type MonitoringResult struct {
	Params MonitoringParams
	Runs   []MonitoringRun
}

// RunMonitoring reproduces the monitoring-revision table: the same
// metadata workload with instrumentation off, with the metaprogrammed
// full-table watch rewrite on (every insert and delete on every
// relation streamed to a collector), and with the production telemetry
// registry attached (step hooks + per-node metrics + event ring).
// The paper's point: because the tracing hooks are just more
// rules/watchers over the same dataflow, the overhead is modest and
// the information is complete.
func RunMonitoring(p MonitoringParams) (*MonitoringResult, error) {
	// Simulated results are deterministic, but the wall-clock cost — the
	// quantity T2 reports — is noisy at millisecond scale. Run the
	// configurations interleaved several times and keep the triple with
	// the median registry overhead ratio.
	const reps = 5
	type triple struct {
		off, watch, reg *MonitoringRun
		regRatio        float64
	}
	var triples []triple
	for rep := 0; rep < reps; rep++ {
		off, err := runMonitoring(p, monOff)
		if err != nil {
			return nil, err
		}
		watch, err := runMonitoring(p, monWatch)
		if err != nil {
			return nil, err
		}
		reg, err := runMonitoring(p, monRegistry)
		if err != nil {
			return nil, err
		}
		r := 0.0
		if off.WallNS > 0 {
			r = float64(reg.WallNS) / float64(off.WallNS)
		}
		triples = append(triples, triple{off, watch, reg, r})
	}
	sort.Slice(triples, func(i, j int) bool { return triples[i].regRatio < triples[j].regRatio })
	med := triples[len(triples)/2]
	return &MonitoringResult{Params: p,
		Runs: []MonitoringRun{*med.off, *med.watch, *med.reg}}, nil
}

func runMonitoring(p MonitoringParams, mode monMode) (*MonitoringRun, error) {
	cfg := boomfs.DefaultConfig()
	clusterOpts := []sim.Option{sim.WithClusterSeed(p.Seed)}
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if mode == monRegistry {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(0)
		clusterOpts = append(clusterOpts, sim.WithTelemetry(reg), sim.WithTracer(tracer))
	}
	c := sim.NewCluster(clusterOpts...)
	var opts []overlog.Option
	if mode == monWatch {
		opts = append(opts, overlog.WithWatchAll())
	}
	rt, err := c.AddNode("master:0", opts...)
	if err != nil {
		return nil, err
	}
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		return nil, err
	}
	if _, err := boomfs.NewMasterOnRuntime(rt, cfg); err != nil {
		return nil, err
	}
	col := trace.NewCollector()
	col.KeepLastN = 0
	if mode == monWatch {
		if err := col.Attach(rt); err != nil {
			return nil, err
		}
	}
	if mode == monRegistry {
		if err := boomfs.InstrumentMaster(reg, "master:0", rt); err != nil {
			return nil, err
		}
	}
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

	run := &MonitoringRun{}
	switch mode {
	case monOff:
		run.Label = "instrumentation off"
	case monWatch:
		run.Label = "tracing on (watch all)"
	case monRegistry:
		run.Label = "registry on (telemetry)"
	}
	cdf := &trace.CDF{}
	start := c.Now()
	wallStart := time.Now()
	for i := 0; i < p.Ops; i++ {
		opStart := c.Now()
		if err := cl.Create(fmt.Sprintf("/bench/f%04d", i)); err != nil {
			return nil, err
		}
		cdf.Add(c.Now() - opStart)
	}
	run.WallNS = time.Since(wallStart).Nanoseconds()
	run.TotalMS = c.Now() - start
	run.OpP50 = cdf.Percentile(50)
	run.Derivations = rt.DerivationCount()
	switch mode {
	case monWatch:
		run.TraceEvents = col.Total()
	case monRegistry:
		run.TraceEvents = tracer.Total()
		run.Samples = reg.Snapshot()
	}
	return run, nil
}

// Report renders the deterministic columns of the comparison. Wall
// time is left out: it varies run to run (see WallRatios).
func (r *MonitoringResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d metadata creates against one master, %d datanodes):\n\n",
		r.Params.Ops, r.Params.DataNodes)
	b.WriteString("| configuration | sim total | op p50 | derivations | trace events |\n")
	b.WriteString("|---|---:|---:|---:|---:|\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "| %s | %d ms | %d ms | %d | %d |\n",
			run.Label, run.TotalMS, run.OpP50, run.Derivations, run.TraceEvents)
	}
	return b.String()
}

// WallRatios returns the watch-all and registry configurations' wall
// time over the uninstrumented run's (the median triple's).
func (r *MonitoringResult) WallRatios() (watch, registry float64) {
	base := float64(r.Runs[0].WallNS)
	return float64(r.Runs[1].WallNS) / base, float64(r.Runs[2].WallNS) / base
}
