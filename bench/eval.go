package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/evalbench"
)

// evalPrograms are the evalbench.Suite() entries eval_batch runs, with
// the short names their per-program metrics use.
var evalPrograms = []struct{ suite, short string }{
	{"FixpointTransitiveClosure/n=256", "tc256"},
	{"FixpointMultiWayJoin", "join4"},
	{"FixpointAggHeavy", "agg"},
}

// evalBatch runs the three bulk programs round-robin, each call a
// fresh runtime run to fixpoint by the suite's own Once body.
type evalBatch struct {
	e      *env
	once   []func() error
	progMS [][]float64
}

func newEvalBatch(e *env) (instance, error) {
	w := &evalBatch{e: e, progMS: make([][]float64, len(evalPrograms))}
	suite := evalbench.Suite()
	for _, p := range evalPrograms {
		for _, b := range suite {
			if b.Name == p.suite {
				w.once = append(w.once, b.Once)
			}
		}
	}
	if len(w.once) != len(evalPrograms) {
		return nil, fmt.Errorf("evalbench.Suite() lacks one of %v", evalPrograms)
	}
	for round := 0; round < max(1, e.warm(100)/20); round++ {
		for _, once := range w.once {
			if err := once(); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *evalBatch) run() (runStats, error) {
	var rs runStats
	var prevEnd time.Time
	rounds := w.e.n(120)
	for round := 0; round < rounds; round++ {
		for i, once := range w.once {
			start := time.Now()
			if !prevEnd.IsZero() {
				rs.lateMS = append(rs.lateMS, float64(start.Sub(prevEnd).Nanoseconds())/1e6)
			}
			err := once()
			prevEnd = time.Now()
			ns := prevEnd.Sub(start).Nanoseconds()
			rs.attempted++
			if err != nil {
				rs.failed++
				fmt.Fprintf(os.Stderr, "bench: eval_batch: %s: %v\n", evalPrograms[i].suite, err)
				continue
			}
			ms := float64(ns) / 1e6
			rs.latMS = append(rs.latMS, ms)
			w.progMS[i] = append(w.progMS[i], ms)
			if tr := w.e.tr; tr != nil {
				tr.opDone(fmt.Sprintf("%s-%d", evalPrograms[i].short, round), evalPrograms[i].short,
					start.Sub(tr.t0).Nanoseconds(), prevEnd.Sub(tr.t0).Nanoseconds())
			}
		}
	}
	return rs, nil
}

// check has nothing left to do: every Once rejects an empty result
// itself, and a non-nil return was counted as a failed op.
func (w *evalBatch) check() error { return nil }

func (w *evalBatch) layers(m map[string]float64, rs runStats, wallS float64) {
	// The runtimes live inside Once, so the time around each call
	// stands in for the step hooks the other rows use.
	us := make([]float64, len(rs.latMS))
	var busyMS float64
	for i, ms := range rs.latMS {
		us[i] = ms * 1e3
		busyMS += ms
	}
	m["overlog.fixpoint_busy_s"] = busyMS / 1e3
	m["overlog.steps"] = float64(len(rs.latMS))
	m["overlog.step_us_p50"] = quantile(us, 0.5)
	m["overlog.step_us_p99"] = quantile(us, 0.99)
	for i, p := range evalPrograms {
		m["overlog."+p.short+"_ms_p50"] = quantile(w.progMS[i], 0.5)
	}
}

func (w *evalBatch) close() {}
