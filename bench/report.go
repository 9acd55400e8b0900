package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envStanza is what a number needs beside it to be trusted later.
type envStanza struct {
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	GitSHA      string  `json:"git_sha"`
	Seed        int64   `json:"seed"`
	Repetitions int     `json:"repetitions"`
	Seconds     int     `json:"seconds"`
	Smoke       bool    `json:"smoke"`
	LoadAvg1    float64 `json:"loadavg_1min_at_start"`
	Started     string  `json:"started"`
}

// row is one end-to-end metric of one workload over the repetitions. An
// exact metric (bound 0) has one value: failed_frac over every run of
// the workload, the virtual-clock ones from the traced run.
type row struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // interquartile range ÷ median
	Status string    `json:"status"` // ok | unresolved, or the -compare verdict
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"` // over every run, untraced and traced
	Failed    int                `json:"failed"`
	EndToEnd  []row              `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer"` // from the traced run
}

type report struct {
	Env       envStanza        `json:"environment"`
	Workloads []workloadReport `json:"workloads"`
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles Python's
// statistics.quantiles(values, n=4) gives; below four values it falls
// back to the range.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 || len(s) < 2 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, exclusive method
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / med
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var v float64
	if _, err := fmt.Sscan(string(data), &v); err != nil {
		return -1
	}
	return v
}

// runAll runs every workload reps times untraced and once traced, one
// child process at a time, prints the report and writes results.json.
func runAll(cfg config, reps int, compare string) error {
	rep := report{Env: envStanza{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GitSHA: gitSHA(), Seed: cfg.seed, Repetitions: reps, Seconds: cfg.seconds, Smoke: cfg.smoke,
		LoadAvg1: loadAvg1(), Started: time.Now().UTC().Format(time.RFC3339),
	}}
	var bad []string // workloads with a failed check or a failed op
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Why: w.why, Correct: true}
		child := cfg
		child.workload, child.trace, child.refOps = w.name, false, 0
		values := map[string][]float64{}
		for i := 0; i < reps; i++ {
			res, err := spawn(child)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d: %.6g ops/s\n", w.name, i+1, reps, res.Metrics["ops_per_s"].Value)
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted, wr.Failed = wr.Attempted+res.Attempted, wr.Failed+res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range endToEnd {
			v := values[m.Name]
			r := row{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Values: v,
				Median: quantile(v, 0.5), Min: quantile(v, 0), Max: quantile(v, 1), Spread: quartileSpread(v), Status: "ok"}
			// A spread wider than the bound cannot show a change of the
			// bound's size either way. setup_s is exempt: it is gated on
			// medians only.
			if r.Spread > m.Bound && m.Name != "setup_s" {
				r.Status = "unresolved"
			}
			wr.EndToEnd = append(wr.EndToEnd, r)
		}
		child.trace, child.refOps = true, quantile(values["ops_per_s"], 0.5)
		res, err := spawn(child)
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted, wr.Failed = wr.Attempted+res.Attempted, wr.Failed+res.Failed
		for _, m := range exactEndToEnd {
			if !m.appliesTo(w.name) {
				continue
			}
			v := res.Metrics[m.Name].Value
			if m.Name == "failed_frac" {
				v = float64(wr.Failed) / float64(wr.Attempted)
			}
			wr.EndToEnd = append(wr.EndToEnd, row{Name: m.Name, Unit: m.Unit, Better: m.Better,
				Median: v, Min: v, Max: v, Status: "ok", Values: []float64{v}})
		}
		wr.Layers = map[string]float64{}
		for _, m := range layerMetrics {
			if m.appliesTo(w.name) {
				wr.Layers[m.Name] = res.Metrics[m.Name].Value
			}
		}
		if !wr.Correct || wr.Failed > 0 {
			bad = append(bad, w.name)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if compare != "" {
		if err := rep.compareTo(compare); err != nil {
			return err
		}
	}
	rep.print()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(cfg.outDir, "trace-<workload>.json"))
	if len(bad) > 0 {
		return fmt.Errorf("a correctness check or an operation failed on %s", strings.Join(bad, ", "))
	}
	return nil
}

func (rep report) print() {
	e := rep.Env
	fmt.Printf("environment: gomaxprocs=%d num_cpu=%d %s git=%s seed=%d reps=%d seconds=%d smoke=%v loadavg1=%.2f\n",
		e.GoMaxProcs, e.NumCPU, e.GoVersion, e.GitSHA, e.Seed, e.Repetitions, e.Seconds, e.Smoke, e.LoadAvg1)
	for _, w := range rep.Workloads {
		fmt.Printf("\n== %s — %s\n   correct=%v attempted=%d failed=%d\n", w.Name, w.Why, w.Correct, w.Attempted, w.Failed)
		for _, r := range w.EndToEnd {
			fmt.Printf("   %-28s %12.6g %-9s min %-10.6g max %-10.6g spread %5.1f%% bound %3.0f%%  %s\n",
				r.Name, r.Median, r.Unit, r.Min, r.Max, 100*r.Spread, 100*r.Bound, r.Status)
		}
		for _, m := range layerMetrics {
			if v, ok := w.Layers[m.Name]; ok {
				fmt.Printf("   %-28s %12.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
}

// compareTo sets each end-to-end row's status against a baseline
// report: unresolved when either side's spread exceeds the bound,
// otherwise regressed / improved when the medians differ by more than
// the bound in that direction, otherwise unchanged. An exact metric
// (bound 0, lower is better) regresses on any increase.
func (rep report) compareTo(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseRows := map[string]row{}
	for _, w := range base.Workloads {
		for _, r := range w.EndToEnd {
			baseRows[w.Name+"/"+r.Name] = r
		}
	}
	for wi := range rep.Workloads {
		w := &rep.Workloads[wi]
		for ri := range w.EndToEnd {
			r := &w.EndToEnd[ri]
			b, ok := baseRows[w.Name+"/"+r.Name]
			if !ok || (b.Median == 0 && r.Bound > 0) {
				continue
			}
			worse := r.Median - b.Median
			if r.Bound > 0 {
				worse /= b.Median
			}
			if r.Better == "higher" {
				worse = -worse
			}
			switch {
			case r.Status == "unresolved" || strings.HasPrefix(b.Status, "unresolved"):
				r.Status = "unresolved"
			case worse > r.Bound:
				r.Status = "regressed"
			case worse < -r.Bound:
				r.Status = "improved"
			default:
				r.Status = "unchanged"
			}
			r.Status += fmt.Sprintf(" (baseline %.6g)", b.Median)
		}
	}
	return nil
}
