package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes itself once per workload run, and a child of
// the test must run main, not the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs the whole command at 1/20 size and checks the report:
// every metric named in the catalogue is there for the workloads it
// applies to, outputs are correct, the rtfs segments sum to the op
// latency, and the virtual-clock rows repeat exactly under a seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	out := t.TempDir()
	cfg := config{seed: 7, seconds: 10, smoke: true, outDir: out}
	if err := runAll(cfg, 1, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 || rep.Env.GoMaxProcs == 0 || rep.Env.Repetitions != 1 {
		t.Errorf("environment stanza incomplete: %+v", rep.Env)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the report, want %d", len(rep.Workloads), len(workloads))
	}
	layers := map[string]map[string]float64{}
	for _, w := range rep.Workloads {
		layers[w.Name] = w.Layers
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, w.Correct, w.Attempted, w.Failed)
		}
		rows := map[string]row{}
		for _, r := range w.EndToEnd {
			rows[r.Name] = r
		}
		for _, m := range endToEnd {
			if r := rows[m.Name]; !(r.Median > 0) || math.IsInf(r.Median, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, r.Median)
			}
		}
		for _, m := range exactEndToEnd {
			r, ok := rows[m.Name]
			if ok != m.appliesTo(w.Name) {
				t.Errorf("%s: %s reported=%v, applies=%v", w.Name, m.Name, ok, m.appliesTo(w.Name))
			}
			if ok && m.Name != "failed_frac" && !(r.Median > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, r.Median)
			}
			if ok {
				layers[w.Name][m.Name] = r.Median // for the same-seed comparison below
			}
		}
		for _, m := range layerMetrics {
			v, ok := w.Layers[m.Name]
			if ok != m.appliesTo(w.Name) {
				t.Errorf("%s: %s reported=%v, applies=%v", w.Name, m.Name, ok, m.appliesTo(w.Name))
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, m.Name, v)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	// A count that a working layer cannot leave at 0.
	for w, names := range map[string][]string{
		wFSLive:      {"overlog.steps", "transport.msgs_per_op", "transport.echo_rtt_us_p50", "rtfs.op_ms_mean", "boomfs.rule_time_share", "overlog.install_ms"},
		wFSLivePaxos: {"paxos.msgs_per_commit", "paxos.decided_end", "paxos.rule_time_share", "rtfs.serve_ms"},
		wKVSimPaxos:  {"paxos.steps_per_commit", "kvstore.rule_time_share", "sim.steps"},
		wFSSim:       {"sim.node_steps", "sim.delivered_per_op", "overlog.derived_per_op", "overlog.stored_end"},
		wMRSim:       {"boommr.job_virt_ms_p50", "boommr.tasks_per_job", "boommr.rule_time_share", "overlog.step_growth"},
		wEvalBatch:   {"overlog.tc256_ms_p50", "overlog.join4_ms_p50", "overlog.agg_ms_p50", "proc.allocs_per_op"},
	} {
		for _, name := range names {
			if !(layers[w][name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, name, layers[w][name])
			}
		}
	}
	l := layers[wFSLive]
	parts, whole := l["rtfs.req_wire_ms"]+l["rtfs.serve_ms"]+l["rtfs.resp_wait_ms"], l["rtfs.op_ms_mean"]
	if math.Abs(parts-whole) > 0.01*whole {
		t.Errorf("fs_live: wire+serve+wait = %v, op_ms_mean = %v: not within 1%%", parts, whole)
	}

	// The same seed again: what the virtual clock decides must not move.
	for _, w := range []string{wKVSimPaxos, wFSSim, wMRSim} {
		again := cfg
		again.workload, again.trace, again.refOps = w, true, 1
		res, err := spawn(again)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"virt_op_ms_p99", "sim.steps", "overlog.derived_per_op", "paxos.decided_end"} {
			if got, want := res.Metrics[name].Value, layers[w][name]; got != want {
				t.Errorf("%s: %s = %v on the second run of seed %d, %v on the first", w, name, got, cfg.seed, want)
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json equal to what the catalogue renders
// (regenerate it from the root with `bash bench/run.sh -manifest > BENCHMARK.json`).
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it from the root with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

// TestCompareExact: an exact metric has no bound to hide behind, not
// even from a baseline of 0.
func TestCompareExact(t *testing.T) {
	mk := func(failed, p99 float64) report {
		return report{Workloads: []workloadReport{{Name: wFSSim, EndToEnd: []row{
			{Name: "failed_frac", Better: "lower", Median: failed, Status: "ok"},
			{Name: "virt_op_ms_p99", Better: "lower", Median: p99, Status: "ok"},
			{Name: "ops_per_s", Better: "higher", Bound: 0.25, Median: 1000, Status: "ok"},
		}}}}
	}
	data, err := json.Marshal(mk(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mk(0.001, 11)
	if err := rep.compareTo(path); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"regressed", "improved", "unchanged"} {
		if got := rep.Workloads[0].EndToEnd[i].Status; !strings.HasPrefix(got, want) {
			t.Errorf("%s: %s, want %s", rep.Workloads[0].EndToEnd[i].Name, got, want)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; the
	// nearest-rank median of ten values is the fifth.
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vals), (8.25-2.75)/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
