package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is one child run: one workload, one seed, traced or not.
type config struct {
	workload string
	seed     int64
	seconds  int  // sizes are the issue's sizes × seconds/10
	smoke    bool // sizes ÷ 20
	trace    bool
	refOps   float64 // untraced ops_per_s, for trace.overhead_frac (traced runs)
	outDir   string  // trace files land here
}

// env is what a workload builder gets: the run's configuration, the
// tracer (nil on untraced runs) and an accumulator for time spent
// inside program-installing constructors.
type env struct {
	cfg       config
	tr        *tracer
	installNS int64
}

// n scales one of the issue's op counts to this run.
func (e *env) n(base int) int {
	v := float64(base) * float64(e.cfg.seconds) / 10
	if e.cfg.smoke {
		v /= 20
	}
	if v < 1 {
		return 1
	}
	return int(v)
}

// warm is the fixed per-client warm-up (not scaled by -seconds).
func (e *env) warm(base int) int {
	if e.cfg.smoke {
		base /= 20
	}
	if base < 1 {
		return 1
	}
	return base
}

// install times a constructor that parses, lints and installs Overlog
// programs — the only place install cost is visible from outside.
func (e *env) install(fn func() error) error {
	t := time.Now()
	err := fn()
	e.installNS += time.Since(t).Nanoseconds()
	return err
}

// runStats is what a timed phase reports.
type runStats struct {
	attempted int
	failed    int // errors, timeouts, unfinished and not-OK replies
	// latMS is the wall-clock latency of every op that succeeded, issue
	// to completion; a failed op has none and counts as not completed.
	latMS []float64
	// lateMS is how late the generator issued each op: the think time
	// between a reply and the next send on closed loops; empty on the
	// virtual clock, where arrivals fire exactly when due.
	lateMS []float64
}

// instance is one built and warmed-up deployment of a workload.
type instance interface {
	run() (runStats, error)
	// check verifies outputs after the timed phase; it may run untimed
	// work of its own (the failover tail).
	check() error
	// layers adds the workload's own per-layer metrics (traced runs).
	layers(m map[string]float64, rs runStats, wallS float64)
	close()
}

var builders = map[string]func(*env) (instance, error){
	wFSLive:      func(e *env) (instance, error) { return newLiveFS(e, false) },
	wFSLivePaxos: func(e *env) (instance, error) { return newLiveFS(e, true) },
	wKVSimPaxos:  newKVSim,
	wFSSim:       newFSSim,
	wMRSim:       newMRSim,
	wEvalBatch:   newEvalBatch,
}

// result is the last line a child prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runChild executes one workload in this process and returns its
// result. processStart is when main began, so setup_s is everything
// from process start to the first timed op.
func runChild(cfg config, processStart time.Time) (result, error) {
	build, ok := builders[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	e := &env{cfg: cfg}
	if cfg.trace {
		e.tr = newTracer(processStart)
	}
	inst, err := build(e)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	setupS := time.Since(processStart).Seconds()
	res, vals, err := measure(e, inst)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	list := perLayer
	if !cfg.trace {
		list = endToEnd
		vals["setup_s"] = setupS
	}
	for _, m := range list {
		res.Metrics[m.Name] = measured{Value: vals[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// measure runs the timed phase and the correctness check of a built
// instance, closes it, and returns the metric values by name: the
// end-to-end ones on an untraced run, the per-layer ones on a traced run.
func measure(e *env, inst instance) (result, map[string]float64, error) {
	defer inst.close()
	cfg := e.cfg
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if e.tr != nil {
		e.tr.begin()
	}
	cpu0, wall0 := cpuSeconds(), time.Now()
	rs, err := inst.run()
	wallS, cpuS := time.Since(wall0).Seconds(), cpuSeconds()-cpu0
	if e.tr != nil {
		e.tr.end()
	}
	goroutines := runtime.NumGoroutine()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return result{}, nil, fmt.Errorf("timed phase: %w", err)
	}
	done := rs.attempted - rs.failed
	if done < 1 || len(rs.latMS) == 0 {
		return result{}, nil, fmt.Errorf("no operation completed")
	}
	runtime.GC()
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)

	res := result{Correct: true, Attempted: rs.attempted, Failed: rs.failed, Metrics: map[string]measured{}}
	if err := inst.check(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: correctness: %v\n", cfg.workload, err)
		res.Correct = false
	}

	// Every end-to-end metric is taken over the whole timed phase, so a
	// stall, a GC pause or a burst of drops anywhere in it shows.
	ops := float64(done)
	opsPerS := ops / wallS
	vals := map[string]float64{}
	if !cfg.trace {
		vals["ops_per_s"] = opsPerS
		vals["op_ms_p50"] = quantile(rs.latMS, 0.5)
		vals["op_ms_p90"] = quantile(rs.latMS, 0.9)
		vals["cpu_ms_per_op"] = cpuS * 1e3 / ops
		vals["heap_mb"] = float64(msHeap.HeapInuse) / 1e6
		return res, vals, nil
	}
	vals["failed_frac"] = float64(rs.failed) / float64(rs.attempted)
	vals["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	vals["proc.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	vals["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	vals["proc.goroutines_end"] = float64(goroutines)
	vals["proc.wall_s"] = wallS
	vals["gen.late_ms_p99"] = quantile(rs.lateMS, 0.99)
	vals["overlog.install_ms"] = float64(e.installNS) / 1e6
	if cfg.refOps > 0 {
		vals["trace.overhead_frac"] = 1 - opsPerS/cfg.refOps
	}
	e.tr.layers(vals, ops, wallS)
	inst.layers(vals, rs, wallS)
	return res, vals, e.tr.writeFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg)
}

// printResult writes the metrics that apply to the workload, one per
// line in catalogue order, and then, as the last line of standard
// output, the result object.
func printResult(cfg config, res result) error {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	for _, m := range list {
		if m.appliesTo(cfg.workload) {
			fmt.Printf("%-14s %-28s %14.6g %s\n", cfg.workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
