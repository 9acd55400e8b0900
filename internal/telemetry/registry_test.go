package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter: %d", c.Value())
	}
	// Get-or-create returns the same handle.
	if reg.Counter("reqs_total", "requests") != c {
		t.Fatal("counter not deduped")
	}
	g := reg.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge: %d", g.Value())
	}
	if reg.Get("reqs_total") != 5 || reg.Get("depth") != 5 {
		t.Fatalf("Get: %g %g", reg.Get("reqs_total"), reg.Get("depth"))
	}
	if reg.Get("absent") != 0 {
		t.Fatal("absent series should read 0")
	}
}

func TestNilReceiversSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Record(Span{Kind: "op"})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		h.Quantile(0.5) != 0 || tr.Total() != 0 || tr.Spans() != nil {
		t.Fatal("nil metric receivers must read as zero")
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ms", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count: %d", h.Count())
	}
	if h.Sum() != 5056.2 {
		t.Fatalf("sum: %g", h.Sum())
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("p50: %g", q)
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) {
		t.Fatalf("p99: %g", q)
	}
	// Default buckets kick in when bounds are nil.
	d := reg.Histogram("lat2_ms", "latency", nil)
	d.Observe(3)
	if d.Quantile(0.5) != 5 { // first DefLatencyBuckets bound >= 3
		t.Fatalf("default-bucket p50: %g", d.Quantile(0.5))
	}
}

func TestLabelledSeries(t *testing.T) {
	s := L("ops_total", "op", "mkdir", "node", "m1")
	if s != `ops_total{op="mkdir",node="m1"}` {
		t.Fatalf("L: %s", s)
	}
	if L("plain") != "plain" {
		t.Fatal("unlabelled L should be identity")
	}
	reg := NewRegistry()
	reg.Counter(L("ops_total", "op", "mkdir"), "ops").Inc()
	reg.Counter(L("ops_total", "op", "rm"), "ops").Add(2)
	text := reg.PrometheusText()
	// One family header for both labelled series.
	if strings.Count(text, "# TYPE ops_total counter") != 1 {
		t.Fatalf("family headers:\n%s", text)
	}
	if !strings.Contains(text, `ops_total{op="mkdir"} 1`) ||
		!strings.Contains(text, `ops_total{op="rm"} 2`) {
		t.Fatalf("series lines:\n%s", text)
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "a help").Inc()
	reg.Gauge("b", "").Set(3)
	reg.GaugeFunc("c", "computed", func() float64 { return 2.5 })
	reg.Histogram("h_ms", "hist", []float64{1, 2}).Observe(1.5)
	text := reg.PrometheusText()
	for _, want := range []string{
		"# HELP a_total a help",
		"# TYPE a_total counter",
		"a_total 1",
		"# TYPE b gauge",
		"b 3",
		"c 2.5",
		"# TYPE h_ms histogram",
		`h_ms_bucket{le="1"} 0`,
		`h_ms_bucket{le="2"} 1`,
		`h_ms_bucket{le="+Inf"} 1`,
		"h_ms_sum 1.5",
		"h_ms_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// No HELP line for empty help text.
	if strings.Contains(text, "# HELP b") {
		t.Fatalf("unexpected HELP for b:\n%s", text)
	}
}

func TestSnapshotExpandsHistograms(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n_total", "").Add(2)
	reg.Histogram(L("h_ms", "op", "read"), "", []float64{10}).Observe(4)
	byName := map[string]float64{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		"n_total":                          2,
		`h_ms_bucket{op="read",le="10"}`:   1,
		`h_ms_bucket{op="read",le="+Inf"}`: 1,
		`h_ms_sum{op="read"}`:              4,
		`h_ms_count{op="read"}`:            1,
	} {
		if byName[name] != want {
			t.Fatalf("snapshot[%s] = %g, want %g (all: %v)", name, byName[name], want, byName)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x as gauge should panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("hits_total", "")
			h := reg.Histogram("d_ms", "", nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 50))
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Get("hits_total"); got != 8000 {
		t.Fatalf("hits: %g", got)
	}
	if reg.Histogram("d_ms", "", nil).Count() != 8000 {
		t.Fatal("histogram lost observations")
	}
}

func TestRenderText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "").Inc()
	reg.Gauge("aa", "").Set(2)
	out := reg.RenderText()
	if strings.Index(out, "aa") > strings.Index(out, "zz_total") {
		t.Fatalf("RenderText not sorted:\n%s", out)
	}
}
