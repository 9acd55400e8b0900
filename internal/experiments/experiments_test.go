package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/paxos"
)

// The evaluation runs once per test binary, at the parameters
// EXPERIMENTS.md documents. TestBehaviourGolden pins every number it
// produces; the Shape tests assert each figure's claim at the paper's
// tolerance, each with its derivation. Bracketed numbers in the
// comments are the values measured when the tolerance was set.
var paper = sync.OnceValues(RunPaper)

func mustPaper(t *testing.T) *Paper {
	t.Helper()
	p, err := paper()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBehaviourGolden fails when a deterministic number of the
// evaluation (a figure's table, a chaos run's violation count or state
// digest) differs from testdata/behaviour.golden, or when a generated
// table in EXPERIMENTS.md differs from the run. `go run ./cmd/boom-bench`
// rewrites both; a change that moves a line says why.
func TestBehaviourGolden(t *testing.T) {
	p := mustPaper(t)
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	files, err := p.Files(root)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) == want {
			continue
		}
		file, run := strings.Split(string(data), "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(file) && i < len(run) && file[i] == run[i] {
			i++
		}
		at := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "(end of file)"
		}
		t.Errorf("%s:%d differs from this run (go run ./cmd/boom-bench regenerates it)\n file: %s\n run:  %s",
			name, i+1, at(file), at(run))
	}
	for _, r := range p.Chaos {
		if r.Violations != 0 {
			t.Errorf("chaos %s seed %d: %d invariant violations (run boom-chaos for the report)",
				r.Scenario, r.Seed, r.Violations)
		}
	}
}

// TestCodeSize checks T1. The paper's "order of magnitude" compared
// its Overlog against production Hadoop; here each declarative
// component is compared with the imperative twin written for this
// repository, counting like for like: Go lines of the twin's non-test
// file and Overlog lines of the component, neither blank nor comment.
// The floors sit under today's ratios [FS 330 / 119 = 2.8×, MR
// 381 / 75 = 5.1×], so only a change that erodes the gap fails.
func TestCodeSize(t *testing.T) {
	res, err := RunCodeSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Olg) < 8 {
		t.Fatalf("olg programs: %d", len(res.Olg))
	}
	for _, s := range res.Olg {
		if s.Lines == 0 {
			t.Fatalf("program %s has no lines", s.Name)
		}
		if s.Name == "boomfs master" && s.Rules < 30 {
			t.Fatalf("master rules: %d", s.Rules)
		}
	}
	floors := map[string]float64{"FS master": 2.5, "MR scheduling": 4}
	for _, row := range t1Rows {
		if floor, ok := floors[row.Component]; ok && res.ratio(row) < floor {
			t.Errorf("%s: twin/Overlog ratio %.2f, want >= %.1f\n%s", row.Component, res.ratio(row), floor, res.Report())
		}
	}
}

// TestCodeSizeAllProgramsParse: a program that does not parse fails T1
// with its name, instead of reporting zero rules and silently
// understating the declarative inventory.
func TestCodeSizeAllProgramsParse(t *testing.T) {
	_, err := olgStat("boomfs master", "program p;\nperiodic t interval {{TICK}};\n")
	if err == nil || !strings.Contains(err.Error(), "boomfs master") {
		t.Fatalf("unparseable program: %v, want an error naming it", err)
	}
}

// TestPerfShape checks F1. Paper: the four {scheduler} × {file system}
// combinations track each other. All four drive one simulated execution
// substrate, so their job times differ by scheduling-tick alignment
// only: within 1 % [1 686 vs 1 687 ms].
func TestPerfShape(t *testing.T) {
	res := mustPaper(t).Perf
	if len(res.Combos) != 4 {
		t.Fatalf("combos: %d", len(res.Combos))
	}
	for _, cb := range res.Combos {
		if cb.MapCDF.N() != res.Params.NumSplits || cb.ReduceCDF.N() != res.Params.NumReduce {
			t.Fatalf("%v+%v: %d maps %d reduces", cb.MR, cb.FS, cb.MapCDF.N(), cb.ReduceCDF.N())
		}
		if cb.JobMS <= 0 || cb.IngestMS <= 0 {
			t.Fatalf("%v+%v: job %d ingest %d", cb.MR, cb.FS, cb.JobMS, cb.IngestMS)
		}
	}
	if ratio := res.MaxRatio(); ratio > 1.01 {
		t.Fatalf("combos' job times diverge by %.3fx, want <= 1.01\n%s", ratio, res.Report())
	}
}

// TestFailoverShape checks F2. Paper: every scenario completes, a
// backup failure is free, and a primary failure costs one bounded
// pause.
func TestFailoverShape(t *testing.T) {
	res := mustPaper(t).Failover
	if len(res.Runs) != 3 {
		t.Fatalf("runs: %d", len(res.Runs))
	}
	none, backup, primary := res.Runs[0], res.Runs[1], res.Runs[2]
	for _, r := range res.Runs {
		if r.FailedOps != 0 {
			t.Fatalf("%v: %d failed ops\n%s", r.Scenario, r.FailedOps, res.Report())
		}
	}
	healthy := none.OpCDF.Percentile(50)
	if none.WorstOpMS != healthy {
		t.Fatalf("no-failure run is not uniform: p50 %d, worst %d", healthy, none.WorstOpMS)
	}
	// A backup kill leaves the leader's quorum intact: p90 and worst op
	// equal the no-failure run's [5 / 5 ms].
	if backup.OpCDF.Percentile(90) != none.OpCDF.Percentile(90) || backup.WorstOpMS != none.WorstOpMS {
		t.Fatalf("backup kill cost latency\n%s", res.Report())
	}
	// A primary kill is one pause: every other op runs at healthy
	// latency, so the total is the healthy total with one op swapped.
	if primary.TotalMS != none.TotalMS-healthy+primary.WorstOpMS {
		t.Fatalf("primary kill slowed more than one op\n%s", res.Report())
	}
	if primary.LeaderIdx <= 0 {
		t.Fatalf("leader after primary kill: %d", primary.LeaderIdx)
	}
	// The pause's bounds, from paxos.DefaultConfig(). The primary's last
	// heartbeat precedes the kill by at most TickMS. Rank 1 elects on
	// its first tick more than ElectTimeout×(1+1) after that heartbeat,
	// so between ElectTimeout×2 − TickMS and ElectTimeout×2 + TickMS
	// after the kill; the latter is inside the client's RetryMS, so the
	// client's resend, when its window on the dead primary ends, finds
	// the new leader and completes at healthy latency. Hence
	// ElectTimeout×2 − TickMS ≤ pause ≤ RetryMS + healthy
	// [2 100 ≤ 2 867 ≤ 3 005]. The upper bound does not close: the
	// simulator ends the client's window at its last event before the
	// deadline (a resend at 2 862 ms, not 3 000), which is the 138 ms
	// of slack.
	cfg := paxos.DefaultConfig()
	if elect := 2*cfg.ElectTimeout + cfg.TickMS; elect >= failoverRetryMS {
		t.Fatalf("election bound %d ms exceeds the client's %d ms retry window", elect, failoverRetryMS)
	}
	lo, hi := 2*cfg.ElectTimeout-cfg.TickMS, failoverRetryMS+healthy
	if primary.WorstOpMS < lo || primary.WorstOpMS > hi {
		t.Fatalf("primary-kill pause %d ms outside [%d, %d]\n%s", primary.WorstOpMS, lo, hi, res.Report())
	}
}

// TestScaleupShape checks F3. Paper: throughput grows near-linearly
// with partitions until the clients stop saturating the masters. One
// master spending 2 ms per request serves at most 500 ops/s and eight
// closed-loop clients keep it saturated [499.7/s], so two should nearly
// double it; ≥ 1.7× leaves the clients' own round trips room [1.78×].
func TestScaleupShape(t *testing.T) {
	res := mustPaper(t).Scaleup
	if len(res.Points) != 3 {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if want := res.Params.Clients * res.Params.OpsPerClient; pt.OpCDF.N() != want {
			t.Fatalf("%d partitions: %d samples, want %d", pt.Partitions, pt.OpCDF.N(), want)
		}
	}
	if s := res.Speedup(res.Points[1]); s < 1.7 {
		t.Fatalf("2 partitions: %.2fx, want >= 1.7x\n%s", s, res.Report())
	}
}

// TestLateShape checks F4. Paper: the declarative LATE policy pulls in
// the straggler tail and matches Hadoop's speculation. The contaminated
// node runs its maps 8× slow, so FIFO's map tail is one slow map;
// speculating it on a healthy node should at least nearly halve the
// tail (≤ 0.6× FIFO's [0.49×]) and land within 5 % of the imperative
// speculator's tail [3.6 %].
func TestLateShape(t *testing.T) {
	res := mustPaper(t).Late
	var fifo, late, base *LateRun
	for i := range res.Runs {
		switch res.Runs[i].Policy {
		case PolicyFIFONoSpec:
			fifo = &res.Runs[i]
		case PolicyBoomLATE:
			late = &res.Runs[i]
		case PolicyBaseSpec:
			base = &res.Runs[i]
		}
	}
	if fifo == nil || late == nil || base == nil {
		t.Fatal("missing runs")
	}
	if late.Speculative == 0 {
		t.Fatalf("LATE never speculated\n%s", res.Report())
	}
	if late.JobMS >= fifo.JobMS || base.JobMS >= fifo.JobMS {
		t.Fatalf("speculation did not beat FIFO\n%s", res.Report())
	}
	tail := func(r *LateRun) float64 { return float64(r.MapCDF.Max()) }
	if r := tail(late) / tail(fifo); r > 0.6 {
		t.Fatalf("LATE map tail %.2fx FIFO's, want <= 0.6x\n%s", r, res.Report())
	}
	if r := tail(late)/tail(base) - 1; math.Abs(r) > 0.05 {
		t.Fatalf("LATE map tail %+.1f%% off the imperative speculator's, want within 5%%\n%s", 100*r, res.Report())
	}
}

// TestMonitoringShape checks T2. Instrumentation observes and never
// alters: simulated time and derivations are identical in all three
// configurations [1 000 ms, 6 026].
func TestMonitoringShape(t *testing.T) {
	res := mustPaper(t).Monitoring
	if len(res.Runs) != 3 {
		t.Fatalf("runs: %d", len(res.Runs))
	}
	off, on, reg := res.Runs[0], res.Runs[1], res.Runs[2]
	if off.TotalMS != on.TotalMS || off.TotalMS != reg.TotalMS ||
		off.Derivations != on.Derivations || off.Derivations != reg.Derivations {
		t.Fatalf("instrumentation altered simulated behaviour\n%s", res.Report())
	}
	if on.TraceEvents == 0 || off.TraceEvents != 0 {
		t.Fatalf("trace events: off=%d on=%d", off.TraceEvents, on.TraceEvents)
	}
	// The registry run records network events in its ring and snapshots the
	// metrics a live node would serve on /metrics.
	if reg.TraceEvents == 0 || len(reg.Samples) == 0 {
		t.Fatalf("registry run: %d ring events, %d samples", reg.TraceEvents, len(reg.Samples))
	}
	found := false
	for _, s := range reg.Samples {
		if s.Name == `boomfs_requests_total{op="create",node="master:0"}` && s.Value == float64(res.Params.Ops) {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing create counter = %d", res.Params.Ops)
	}
}

// TestPaxosBenchShape checks F5. A commit costs the leader one accept
// round to a quorum: at one replica the quorum is the leader itself;
// with more, the round adds one round trip over the simulator's 1 ms
// links. More replicas add parallel messages in the same round, not
// rounds, so 3 and 5 replicas commit at the same p50 [2 → 4 → 4 ms].
func TestPaxosBenchShape(t *testing.T) {
	res := mustPaper(t).Paxos
	if len(res.Points) != 3 {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.LatCDF.N() != res.Params.Commands {
			t.Fatalf("%d replicas: %d samples", pt.Replicas, pt.LatCDF.N())
		}
	}
	const roundTripMS = 2 // sim.NewCluster's default link latency, both ways
	solo, three, five := res.Points[0].LatCDF.Percentile(50), res.Points[1].LatCDF.Percentile(50),
		res.Points[2].LatCDF.Percentile(50)
	if three != solo+roundTripMS || five != three {
		t.Fatalf("commit p50 %d → %d → %d ms, want one round trip from 1 to 3 replicas and none from 3 to 5\n%s",
			solo, three, five, res.Report())
	}
}

// TestFairnessShape checks A1. FIFO runs the jobs back to back, so the
// first and last finish two jobs' run time apart; FAIR interleaves
// them, so they finish within about a task of each other. ≤ 0.25× of
// FIFO's spread [6 034 vs 1 231 ms, 0.20×].
func TestFairnessShape(t *testing.T) {
	res := mustPaper(t).Fairness
	if len(res.Runs) != 2 {
		t.Fatalf("runs: %d", len(res.Runs))
	}
	fifo, fair := res.Runs[0], res.Runs[1]
	if 4*fair.SpreadMS > fifo.SpreadMS {
		t.Fatalf("FAIR spread %d ms, want <= 0.25x FIFO's %d ms\n%s", fair.SpreadMS, fifo.SpreadMS, res.Report())
	}
}

// TestNaiveAblation checks A2: both strategies reach the same closure,
// and semi-naive evaluation does strictly less work by both exact
// counts.
func TestNaiveAblation(t *testing.T) {
	res := mustPaper(t).Naive
	semi, naive := res.Runs[0], res.Runs[1]
	if want := res.Edges * (res.Edges + 1) / 2; semi.Reach != want || naive.Reach != want {
		t.Fatalf("reach rows: semi-naive %d, naive %d, want %d", semi.Reach, naive.Reach, want)
	}
	if semi.Evals >= naive.Evals || semi.Derivations >= naive.Derivations {
		t.Fatalf("semi-naive did not do less work\n%s", res.Report())
	}
}

// TestSystemDeterminism: the full FS+MR pipeline is bit-deterministic —
// rerunning a seeded experiment yields identical simulated timings.
func TestSystemDeterminism(t *testing.T) {
	p := PerfParams{DataNodes: 3, TaskTrackers: 3, NumSplits: 4,
		BytesPerSplit: 8 << 10, NumReduce: 2, Seed: 77}
	run := func() []int64 {
		res, err := RunPerf(p)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, cb := range res.Combos {
			out = append(out, cb.IngestMS, cb.JobMS,
				cb.MapCDF.Max(), cb.ReduceCDF.Max())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}
