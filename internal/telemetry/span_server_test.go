package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSpansEndpoint pins /debug/trace over a ring that has evicted
// entries: ?id= returns one trace's spans, nodes and waterfall, and the
// unfiltered page reports total, buffered and evicted.
func TestSpansEndpoint(t *testing.T) {
	tr := NewTracer(4)
	for _, sp := range []Span{
		{Node: "c", Kind: "send", Op: "hb", StartMS: 1, EndMS: 1},
		{TraceID: "r1", SpanID: "c#1", Node: "c", Kind: "op", Op: "create", StartMS: 10, EndMS: 40},
		{TraceID: "r1", SpanID: "m#1", ParentID: "c#1", Node: "m", Kind: "rules", Op: "req", StartMS: 16, EndMS: 16},
		{TraceID: "r2", SpanID: "c#2", Node: "c", Kind: "op", Op: "rm", StartMS: 50, EndMS: 60},
		{Node: "c", Kind: "drop", Op: "hb", StartMS: 61, EndMS: 61, Detail: "partitioned"},
	} {
		tr.Record(sp)
	}
	srv, err := Serve("127.0.0.1:0", Source{Role: "test", Addr: "c", Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/debug/trace")
	if code != 200 {
		t.Fatalf("trace page status %d: %s", code, body)
	}
	var page struct {
		Total    int64  `json:"total"`
		Buffered int64  `json:"buffered"`
		Evicted  int64  `json:"evicted"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 5 || page.Buffered != 4 || page.Evicted != 1 || len(page.Spans) != 4 {
		t.Fatalf("page = total %d, buffered %d, evicted %d, %d spans; want 5, 4, 1, 4",
			page.Total, page.Buffered, page.Evicted, len(page.Spans))
	}
	if page.Spans[0].SpanID != "c#1" || page.Spans[3].Kind != "drop" {
		t.Fatalf("page not oldest-first after eviction: %+v", page.Spans)
	}

	code, body = get(t, srv.URL()+"/debug/trace?id=r1")
	if code != 200 {
		t.Fatalf("trace?id status %d", code)
	}
	var one struct {
		TraceID   string   `json:"trace_id"`
		Node      string   `json:"node"`
		Nodes     []string `json:"nodes"`
		Spans     []Span   `json:"spans"`
		Waterfall string   `json:"waterfall"`
	}
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != "r1" || one.Node != "c" || len(one.Spans) != 2 || len(one.Nodes) != 2 {
		t.Fatalf("trace view wrong: %+v", one)
	}
	if one.Waterfall == "" {
		t.Fatal("trace view missing waterfall render")
	}

	// No tracer attached → 404.
	bare, err := Serve("127.0.0.1:0", Source{Role: "bare", Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code, _ := get(t, bare.URL()+"/debug/trace"); code != 404 {
		t.Fatalf("tracerless /debug/trace status %d, want 404", code)
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "requests").Add(12)
	h := reg.Histogram("lat_ms", "latency", []float64{1, 10, 100, 1000})
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 200))
	}
	srv, err := Serve("127.0.0.1:0", Source{Role: "test", Addr: "n1", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/metrics?format=json")
	if code != 200 {
		t.Fatalf("metrics json status %d", code)
	}
	var resp struct {
		Node    string       `json:"node"`
		Metrics []MetricJSON `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Node != "n1" || len(resp.Metrics) != 2 {
		t.Fatalf("resp = node %q, %d metrics; want n1, 2", resp.Node, len(resp.Metrics))
	}
	byName := map[string]MetricJSON{}
	for _, m := range resp.Metrics {
		byName[m.Name] = m
	}
	if c := byName["reqs_total"]; c.Kind != "counter" || c.Value != 12 {
		t.Fatalf("counter json wrong: %+v", c)
	}
	lat := byName["lat_ms"]
	if lat.Kind != "histogram" || lat.Count != 1000 {
		t.Fatalf("histogram json wrong: %+v", lat)
	}
	for _, q := range []string{"p50", "p90", "p99", "p99.9"} {
		if _, ok := lat.Quantiles[q]; !ok {
			t.Fatalf("histogram json missing quantile %s: %v", q, lat.Quantiles)
		}
	}
	if lat.Quantiles["p99.9"] < lat.Quantiles["p50"] {
		t.Fatalf("p99.9 (%v) below p50 (%v)", lat.Quantiles["p99.9"], lat.Quantiles["p50"])
	}

	// The prometheus text form must be unaffected by the json branch.
	code, body = get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("prom metrics status %d", code)
	}
	if !strings.Contains(body, "reqs_total 12") {
		t.Fatal("prom text missing reqs_total 12")
	}
}
