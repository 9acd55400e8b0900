package telemetry

import (
	"math"
	"strings"
	"sync"

	"repro/internal/overlog"
)

// MetricSweep mirrors selected registry series into sys::metric
// tuples so SLO rules can be written in Overlog against ordinary
// relations (the paper's monitoring-as-metaprogramming move). A
// driver calls Collect on its periodic — the sim on a virtual-clock
// timer, rtfs on a wall ticker — and delivers the tuples to a
// runtime; sys::metric is keyed (Node, Name) so each sweep replaces
// the previous window.
//
// Per series, a sweep emits:
//
//   - counters: the cumulative value under the series name, plus the
//     per-window delta under "<series>_win" (the windowed rate SLO
//     rules actually want);
//   - gauges: the current value;
//   - histograms: "<series>_p50"/"_p99"/"_p999" quantile estimates,
//     the cumulative "<series>_count", and the per-window
//     "<series>_count_win".
//
// Values are rounded to int64 (sys::metric's Value column is int so
// guard comparisons stay uniformly typed); Window is the
// window-start clock value the driver passes in.
type MetricSweep struct {
	Reg  *Registry
	Node string
	// Prefixes filters series by name prefix; empty sweeps everything.
	Prefixes []string

	mu   sync.Mutex
	last map[string]float64
}

func (s *MetricSweep) wants(series string) bool {
	if len(s.Prefixes) == 0 {
		return true
	}
	for _, p := range s.Prefixes {
		if strings.HasPrefix(series, p) {
			return true
		}
	}
	return false
}

// delta returns value minus the previous sweep's value for name.
func (s *MetricSweep) delta(name string, v float64) float64 {
	if s.last == nil {
		s.last = make(map[string]float64)
	}
	d := v - s.last[name]
	s.last[name] = v
	return d
}

func metricTuple(node, name string, window int64, v float64) overlog.Tuple {
	return overlog.NewTuple("sys::metric",
		overlog.Str(node), overlog.Str(name), overlog.Int(window),
		overlog.Int(int64(math.Round(v))))
}

// Collect takes one sweep and returns the sys::metric tuples for it.
// windowStartMS must come from the driver's clock (virtual under
// sim) — Collect never reads one.
func (s *MetricSweep) Collect(windowStartMS int64) []overlog.Tuple {
	r := s.Reg
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.byName[name])
	}
	r.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	var out []overlog.Tuple
	emit := func(name string, v float64) {
		out = append(out, metricTuple(s.Node, name, windowStartMS, v))
	}
	for _, e := range entries {
		if !s.wants(e.series) {
			continue
		}
		switch e.kind {
		case kindCounter:
			v := float64(e.counter.Value())
			emit(e.series, v)
			emit(suffixed(e.series, "_win"), s.delta(e.series, v))
		case kindGauge:
			emit(e.series, float64(e.gauge.Value()))
		case kindGaugeFunc:
			emit(e.series, e.gfn())
		case kindHistogram:
			emit(suffixed(e.series, "_p50"), e.hist.Quantile(0.50))
			emit(suffixed(e.series, "_p99"), e.hist.Quantile(0.99))
			emit(suffixed(e.series, "_p999"), e.hist.Quantile(0.999))
			c := float64(e.hist.Count())
			emit(suffixed(e.series, "_count"), c)
			emit(suffixed(e.series, "_count_win"), s.delta(e.series, c))
		}
	}
	return out
}
