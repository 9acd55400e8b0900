package experiments

import (
	"fmt"
	"strings"

	"repro/internal/overlog"
)

// tcProgram is transitive closure, the fixpoint whose cost the A2
// ablation compares across evaluation strategies.
const tcProgram = `
	table edge(A: int, B: int) keys(0,1);
	table reach(A: int, B: int) keys(0,1);
	r1 reach(A, B) :- edge(A, B);
	r2 reach(A, C) :- edge(A, B), reach(B, C);
`

// NaiveRun is the work one evaluation strategy does to close the chain:
// rule evaluations entered and head derivations (pre-dedup), both exact
// counts, plus the closure's size as the correctness check.
type NaiveRun struct {
	Label       string
	Evals       int64
	Derivations int64
	Reach       int
}

// NaiveResult is the A2 ablation: semi-naive against naive evaluation
// on a transitive-closure chain.
type NaiveResult struct {
	Edges int
	Runs  []NaiveRun
}

// RunNaive closes an edges-long chain once with semi-naive evaluation
// (delta-driven, the default) and once with WithNaiveEval (every rule
// over full tables each iteration).
func RunNaive(edges int) (*NaiveResult, error) {
	res := &NaiveResult{Edges: edges}
	for _, mode := range []struct {
		label string
		opts  []overlog.Option
	}{
		{"semi-naive", nil},
		{"naive", []overlog.Option{overlog.WithNaiveEval()}},
	} {
		rt := overlog.NewRuntime("n1", mode.opts...)
		if err := rt.InstallSource(tcProgram); err != nil {
			return nil, err
		}
		facts := make([]overlog.Tuple, edges)
		for j := range facts {
			facts[j] = overlog.NewTuple("edge", overlog.Int(int64(j)), overlog.Int(int64(j+1)))
		}
		if _, err := rt.Step(1, facts); err != nil {
			return nil, fmt.Errorf("%s: %w", mode.label, err)
		}
		run := NaiveRun{Label: mode.label, Derivations: rt.DerivationCount(),
			Reach: rt.Table("reach").Len()}
		for _, p := range rt.RuleProfiles() {
			run.Evals += p.Evals
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// Report renders the ablation.
func (r *NaiveResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (transitive closure of a %d-edge chain, one step; exact counts):\n\n", r.Edges)
	b.WriteString("| evaluation | rule evaluations | derivations | reach rows |\n|---|---:|---:|---:|\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", run.Label, run.Evals, run.Derivations, run.Reach)
	}
	return b.String()
}
