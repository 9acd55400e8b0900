// Command bench is the repository's one benchmark: six named workloads
// over the whole stack, measured from outside through public functions.
//
//	bash bench/run.sh -workload fs_live -seed 1 -seconds 10 -trace 0   one run (what BENCHMARK.json's command does)
//	bash bench/run.sh                                                  every workload, repeated, with a report
//	bash bench/run.sh -smoke                                           the same at 1/20 size
//
// run.sh builds this package and runs it from the repository root.
// Each workload run is its own process: with no -workload the command
// re-executes itself once per run, one child at a time. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	processStart := time.Now()
	var cfg config
	var trace, reps int
	var compare string
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result line")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: op counts are the documented sizes × seconds/10")
	flag.IntVar(&trace, "trace", 0, "1 attaches step hooks and the rule profiler and reports the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "every workload at 1/20 size")
	flag.Float64Var(&cfg.refOps, "ref-ops", 0, "untraced ops_per_s for trace.overhead_frac (measured first if 0)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for results.json and trace files")
	flag.IntVar(&reps, "reps", 0, "untraced repetitions per workload when running all workloads (default 5, or 1 with -smoke)")
	flag.StringVar(&compare, "compare", "", "baseline results.json to compare the report against")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it, and exit")
	flag.Parse()
	if *printManifest {
		data, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	cfg.trace = trace != 0
	if reps == 0 {
		reps = 5
		if cfg.smoke {
			reps = 1
		}
	}
	if cfg.seconds < 1 || reps < 1 {
		fatal(fmt.Errorf("-seconds and -reps must be at least 1"))
	}

	if cfg.workload == "" {
		if err := runAll(cfg, reps, compare); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.trace && cfg.refOps == 0 {
		// trace.overhead_frac needs an untraced run of the same inputs.
		ref := cfg
		ref.trace = false
		res, err := spawn(ref)
		if err != nil {
			fatal(fmt.Errorf("untraced reference run: %w", err))
		}
		cfg.refOps = res.Metrics["ops_per_s"].Value
		processStart = time.Now()
	}
	res, err := runChild(cfg, processStart)
	if err != nil {
		fatal(err)
	}
	// A failed correctness check is reported in the result line
	// ("correct": false) with exit code 0; running every workload turns
	// it into a failed command.
	if err := printResult(cfg, res); err != nil {
		fatal(err)
	}
}

// childEnv marks a re-executed child, so that a test binary standing in
// for the benchmark knows to run main.
const childEnv = "BOOM_BENCH_CHILD"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// spawn runs one workload in a fresh child process and parses the last
// line of its output.
func spawn(cfg config) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-out", cfg.outDir,
		"-ref-ops", fmt.Sprint(cfg.refOps),
	}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", cfg.workload, err)
	}
	return res, nil
}
