package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/chaos"
)

// The files Paper regenerates, relative to the module root.
const (
	GoldenFile = "internal/experiments/testdata/behaviour.golden"
	DocFile    = "EXPERIMENTS.md"
)

// chaosSeeds is how many seeds, from 1, each chaos scenario runs.
const chaosSeeds = 5

// ChaosRun is one chaos scenario at one seed: the violation count and
// the digest of the cluster's final state.
type ChaosRun struct {
	Scenario   string
	Seed       int64
	Violations int
	Digest     string
}

// Paper holds every table and figure of the evaluation, each run once
// at the parameters EXPERIMENTS.md documents, plus the chaos scenarios.
// Everything but T2's wall time is deterministic.
type Paper struct {
	CodeSize   *CodeSizeResult
	Perf       *PerfResult
	Failover   *FailoverResult
	Scaleup    *ScaleupResult
	Late       *LateResult
	Monitoring *MonitoringResult
	Paxos      *PaxosResult
	Fairness   *FairnessResult
	Naive      *NaiveResult
	Chaos      []ChaosRun
}

// RunPaper runs the whole evaluation.
func RunPaper() (*Paper, error) {
	p := &Paper{}
	var err error
	if p.CodeSize, err = RunCodeSize(); err != nil {
		return nil, fmt.Errorf("T1: %w", err)
	}
	if p.Perf, err = RunPerf(DefaultPerfParams()); err != nil {
		return nil, err
	}
	if p.Failover, err = RunFailover(DefaultFailoverParams()); err != nil {
		return nil, err
	}
	if p.Scaleup, err = RunScaleup(DefaultScaleupParams()); err != nil {
		return nil, err
	}
	if p.Late, err = RunLate(DefaultLateParams()); err != nil {
		return nil, err
	}
	if p.Monitoring, err = RunMonitoring(DefaultMonitoringParams()); err != nil {
		return nil, fmt.Errorf("T2: %w", err)
	}
	if p.Paxos, err = RunPaxosBench(DefaultPaxosParams()); err != nil {
		return nil, err
	}
	if p.Fairness, err = RunFairness(DefaultFairnessParams()); err != nil {
		return nil, err
	}
	if p.Naive, err = RunNaive(60); err != nil {
		return nil, fmt.Errorf("A2: %w", err)
	}
	for _, sc := range chaos.Registry() {
		if sc.Name == "fs-weak" {
			continue // the harness self-test: it exists to fail
		}
		for seed := int64(1); seed <= chaosSeeds; seed++ {
			out := sc.Run(seed, sc.Schedule(seed))
			if out.Err != nil {
				return nil, fmt.Errorf("chaos %s seed %d: %w", sc.Name, seed, out.Err)
			}
			p.Chaos = append(p.Chaos, ChaosRun{Scenario: sc.Name, Seed: seed,
				Violations: len(out.Violations), Digest: out.Digest})
		}
	}
	return p, nil
}

// Block is one generated table, under its EXPERIMENTS.md artifact ID.
type Block struct {
	ID   string
	Text string
}

// Blocks returns every artifact's table in document order.
func (p *Paper) Blocks() []Block {
	return []Block{
		{"T1", p.CodeSize.Report()},
		{"F1", p.Perf.Report()},
		{"F2", p.Failover.Report()},
		{"F3", p.Scaleup.Report()},
		{"F4", p.Late.Report()},
		{"T2", p.Monitoring.Report()},
		{"F5", p.Paxos.Report()},
		{"A1", p.Fairness.Report()},
		{"A2", p.Naive.Report()},
	}
}

// Golden renders the behaviour golden: every block, then one line per
// chaos run.
func (p *Paper) Golden() string {
	var b strings.Builder
	for _, blk := range p.Blocks() {
		fmt.Fprintf(&b, "== %s\n%s\n", blk.ID, blk.Text)
	}
	b.WriteString("== chaos\n")
	for _, r := range p.Chaos {
		fmt.Fprintf(&b, "%s seed=%d violations=%d digest=%s\n", r.Scenario, r.Seed, r.Violations, r.Digest)
	}
	return b.String()
}

// Files returns what the run says the generated files under root should
// hold, keyed by path relative to root: the golden, and EXPERIMENTS.md
// with each block between its markers replaced.
func (p *Paper) Files(root string) (map[string]string, error) {
	doc, err := os.ReadFile(filepath.Join(root, DocFile))
	if err != nil {
		return nil, err
	}
	text := string(doc)
	for _, blk := range p.Blocks() {
		begin := fmt.Sprintf("<!-- generated: %s -->\n", blk.ID)
		const end = "<!-- end generated -->"
		i := strings.Index(text, begin)
		if i < 0 {
			return nil, fmt.Errorf("%s: no %q marker", DocFile, strings.TrimSpace(begin))
		}
		i += len(begin)
		j := strings.Index(text[i:], end)
		if j < 0 {
			return nil, fmt.Errorf("%s: block %s has no %q marker", DocFile, blk.ID, end)
		}
		text = text[:i] + blk.Text + text[i+j:]
	}
	return map[string]string{GoldenFile: p.Golden(), DocFile: text}, nil
}
