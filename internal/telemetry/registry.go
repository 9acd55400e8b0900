// Package telemetry is the production observability layer for BOOM
// nodes: a metrics registry with atomic hot-path counters, gauges and
// bounded-bucket histograms (exposed in Prometheus text format), a
// per-node event ring of spans with cross-node trace-ID correlation,
// and a status HTTP server whose debug endpoints are
// driven by the runtime's sys:: catalog — the paper's "a program is
// data" monitoring claim made operational.
//
// The registry is deliberately dependency-free and safe for concurrent
// use: metric handles are fetched once (get-or-create under a mutex)
// and then updated with plain atomics, so instrumenting a hot path
// costs one atomic add. All metric mutators are nil-receiver-safe so
// optional instrumentation needs no branching at call sites.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges; an implicit +Inf bucket catches the tail. Observations and
// reads are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// DefLatencyBuckets suits millisecond latencies from sub-ms to 10s.
var DefLatencyBuckets = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns an estimate of quantile q (0..1) assuming samples
// sit at their bucket's upper bound — good enough for dashboards.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// entry is one registered series (base name + optional label set).
type entry struct {
	series string // full series name, labels included
	base   string // name up to the first '{'
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram
}

// Registry holds a node's metric series. One Registry per node.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*entry
	order  []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

// L renders a labelled series name: L("x_total", "op", "mkdir") is
// `x_total{op="mkdir"}`. Pairs must come in k, v order.
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// lookup finds-or-creates an entry, enforcing kind consistency.
func (r *Registry) lookup(series, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[series]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: series %q re-registered as %s (was %s)",
				series, kind.promType(), e.kind.promType()))
		}
		return e
	}
	e := &entry{series: series, base: baseName(series), help: help, kind: kind}
	r.byName[series] = e
	r.order = append(r.order, series)
	return e
}

// Counter returns (creating if needed) the named counter series.
func (r *Registry) Counter(series, help string) *Counter {
	e := r.lookup(series, help, kindCounter)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns (creating if needed) the named gauge series.
func (r *Registry) Gauge(series, help string) *Gauge {
	e := r.lookup(series, help, kindGauge)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// GaugeFunc registers a gauge evaluated at collection time. fn must be
// safe to call from the exposition goroutine.
func (r *Registry) GaugeFunc(series, help string, fn func() float64) {
	e := r.lookup(series, help, kindGaugeFunc)
	e.gfn = fn
}

// Histogram returns (creating if needed) the named histogram. bounds
// nil selects DefLatencyBuckets.
func (r *Registry) Histogram(series, help string, bounds []float64) *Histogram {
	e := r.lookup(series, help, kindHistogram)
	if e.hist == nil {
		if bounds == nil {
			bounds = DefLatencyBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		e.hist = h
	}
	return e.hist
}

// Sample is one exposed time-series value.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot flattens the registry into samples: counters and gauges as
// themselves; histograms as _count, _sum and cumulative _bucket series.
// This is the same data /metrics serves, in programmatic form.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.byName[name])
	}
	r.mu.Unlock()

	var out []Sample
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			out = append(out, Sample{e.series, float64(e.counter.Value())})
		case kindGauge:
			out = append(out, Sample{e.series, float64(e.gauge.Value())})
		case kindGaugeFunc:
			out = append(out, Sample{e.series, e.gfn()})
		case kindHistogram:
			var cum int64
			for i := range e.hist.bounds {
				cum += e.hist.counts[i].Load()
				out = append(out, Sample{
					labelled(e.series, "le", trimFloat(e.hist.bounds[i])), float64(cum)})
			}
			cum += e.hist.counts[len(e.hist.bounds)].Load()
			out = append(out, Sample{labelled(e.series, "le", "+Inf"), float64(cum)})
			out = append(out, Sample{suffixed(e.series, "_sum"), e.hist.Sum()})
			out = append(out, Sample{suffixed(e.series, "_count"), float64(e.hist.Count())})
		}
	}
	return out
}

// Get returns the current value of a series ("" sample names come from
// Snapshot), or 0 when absent. Convenience for tests and reports.
func (r *Registry) Get(series string) float64 {
	r.mu.Lock()
	e, ok := r.byName[series]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	switch e.kind {
	case kindCounter:
		return float64(e.counter.Value())
	case kindGauge:
		return float64(e.gauge.Value())
	case kindGaugeFunc:
		return e.gfn()
	case kindHistogram:
		return float64(e.hist.Count())
	}
	return 0
}

// MetricJSON is one series in the /metrics?format=json exposition.
// Histograms carry quantile estimates (including p99.9, matching
// what trace.CDF computes for the bench reports) instead of raw
// cumulative buckets.
type MetricJSON struct {
	Name      string             `json:"name"`
	Kind      string             `json:"kind"`
	Help      string             `json:"help,omitempty"`
	Value     float64            `json:"value"`
	Count     int64              `json:"count,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// JSONSnapshot renders every series for the JSON metrics form, in
// registration order.
func (r *Registry) JSONSnapshot() []MetricJSON {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.byName[name])
	}
	r.mu.Unlock()

	out := make([]MetricJSON, 0, len(entries))
	for _, e := range entries {
		m := MetricJSON{Name: e.series, Kind: e.kind.promType(), Help: e.help}
		switch e.kind {
		case kindCounter:
			m.Value = float64(e.counter.Value())
		case kindGauge:
			m.Value = float64(e.gauge.Value())
		case kindGaugeFunc:
			m.Value = e.gfn()
		case kindHistogram:
			m.Count = e.hist.Count()
			m.Sum = e.hist.Sum()
			m.Value = float64(m.Count)
			m.Quantiles = map[string]float64{
				"p50":   e.hist.Quantile(0.50),
				"p90":   e.hist.Quantile(0.90),
				"p99":   e.hist.Quantile(0.99),
				"p99.9": e.hist.Quantile(0.999),
			}
		}
		out = append(out, m)
	}
	return out
}

// suffixed inserts a family suffix before any label set: suffixed
// (`h{op="r"}`, "_sum") is `h_sum{op="r"}`.
func suffixed(series, suffix string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i] + suffix + series[i:]
	}
	return series + suffix
}

// labelled appends one more label to a series name (histogram buckets).
func labelled(series, k, v string) string {
	base := series + "_bucket"
	if i := strings.IndexByte(series, '{'); i >= 0 {
		base = series[:i] + "_bucket" + series[i:len(series)-1] + ","
		return fmt.Sprintf("%s%s=%q}", base, k, v)
	}
	return fmt.Sprintf("%s{%s=%q}", base, k, v)
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (one HELP/TYPE header per metric family).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.byName[name])
	}
	r.mu.Unlock()

	// Group series by family, preserving first-registration order.
	seen := map[string]bool{}
	var families []string
	byFamily := map[string][]*entry{}
	for _, e := range entries {
		if !seen[e.base] {
			seen[e.base] = true
			families = append(families, e.base)
		}
		byFamily[e.base] = append(byFamily[e.base], e)
	}

	for _, fam := range families {
		group := byFamily[fam]
		if h := group[0].help; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, group[0].kind.promType()); err != nil {
			return err
		}
		for _, e := range group {
			switch e.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s %d\n", e.series, e.counter.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s %d\n", e.series, e.gauge.Value())
			case kindGaugeFunc:
				fmt.Fprintf(w, "%s %g\n", e.series, e.gfn())
			case kindHistogram:
				var cum int64
				for i := range e.hist.bounds {
					cum += e.hist.counts[i].Load()
					fmt.Fprintf(w, "%s %d\n", labelled(e.series, "le", trimFloat(e.hist.bounds[i])), cum)
				}
				cum += e.hist.counts[len(e.hist.bounds)].Load()
				fmt.Fprintf(w, "%s %d\n", labelled(e.series, "le", "+Inf"), cum)
				fmt.Fprintf(w, "%s %g\n", suffixed(e.series, "_sum"), e.hist.Sum())
				fmt.Fprintf(w, "%s %d\n", suffixed(e.series, "_count"), e.hist.Count())
			}
		}
	}
	return nil
}

// PrometheusText returns the exposition as a string.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

// RenderText renders a sorted, aligned name/value table of every
// sample — what the examples and bench reports print so the demo shows
// the same numbers the HTTP endpoint serves.
func (r *Registry) RenderText() string {
	samples := r.Snapshot()
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	w := 0
	for _, s := range samples {
		if len(s.Name) > w {
			w = len(s.Name)
		}
	}
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b, "%-*s %g\n", w, s.Name, s.Value)
	}
	return b.String()
}
