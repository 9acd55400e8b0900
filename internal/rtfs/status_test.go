package rtfs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestStatusEndpointsAndCrossNodeTrace runs a live TCP FS cluster with
// status servers on every node, performs file operations, and follows
// one request's trace ID from the client's event ring through the
// master's /debug/trace endpoint — the observability acceptance path
// end to end.
func TestStatusEndpointsAndCrossNodeTrace(t *testing.T) {
	cfg := rtConfig()
	masterAddr := freeAddr(t)
	m, err := StartMaster(masterAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.ServeStatus("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	var dns []*Server
	for i := 0; i < 2; i++ {
		dn, err := StartDataNode(freeAddr(t), masterAddr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer dn.Close()
		if err := dn.ServeStatus("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		dns = append(dns, dn)
	}
	cl, err := NewClient(freeAddr(t), masterAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(200 * time.Millisecond) // heartbeats register datanodes

	if err := cl.Mkdir("/obs"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/obs/f", strings.Repeat("x", 40)); err != nil {
		t.Fatal(err)
	}
	if data, err := cl.ReadFile("/obs/f"); err != nil || len(data) != 40 {
		t.Fatalf("read back: %d bytes, %v", len(data), err)
	}

	// Master /metrics: live Prometheus series from the conversation.
	code, body := httpGet(t, m.Status.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status: %d", code)
	}
	for _, want := range []string{
		"boom_steps_total",
		`boomfs_requests_total{op="mkdir"} 1`,
		`boomfs_responses_total{outcome="ok"}`,
		"boom_transport_recv_total",
		`boomfs_table_size{table="datanode"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("master metrics missing %q:\n%s", want, body)
		}
	}

	// Master /healthz and /debug/tables respond sensibly.
	code, body = httpGet(t, m.Status.URL()+"/healthz")
	if code != 200 || !strings.Contains(body, `"master"`) {
		t.Fatalf("healthz %d: %s", code, body)
	}
	code, body = httpGet(t, m.Status.URL()+"/debug/tables?table=fqpath")
	if code != 200 || !strings.Contains(body, "/obs") {
		t.Fatalf("fqpath dump %d: %s", code, body)
	}
	code, body = httpGet(t, m.Status.URL()+"/debug/rules")
	if code != 200 || !strings.Contains(body, `"fires"`) {
		t.Fatalf("rules %d: %s", code, body)
	}
	code, body = httpGet(t, m.Status.URL()+"/debug/catalog")
	if code != 200 || !strings.Contains(body, "sys::rule") {
		t.Fatalf("catalog %d: %s", code, body)
	}

	// Datanode metrics saw chunk traffic.
	sawChunkOp := false
	for _, dn := range dns {
		_, dnBody := httpGet(t, dn.Status.URL()+"/metrics")
		if strings.Contains(dnBody, `boomfs_chunk_ops_total{table="dn_write"}`) {
			sawChunkOp = true
		}
	}
	if !sawChunkOp {
		t.Fatal("no datanode counted a dn_write")
	}

	// Cross-node trace: take the mkdir request's trace ID from the
	// client's op span and find the same ID in the master's event ring
	// over HTTP.
	var traceID string
	for _, sp := range cl.Tracer().Spans() {
		if sp.Kind == "op" && sp.Op == "mkdir" {
			traceID = sp.TraceID
		}
	}
	if traceID == "" {
		t.Fatal("client ring has no mkdir op span")
	}

	// /metrics?format=json mirrors the text exposition with quantiles.
	code, body = httpGet(t, m.Status.URL()+"/metrics?format=json")
	if code != 200 || !strings.Contains(body, "boom_steps_total") ||
		!strings.Contains(body, `"p99.9"`) {
		t.Fatalf("metrics json %d: %s", code, body)
	}

	// The trace's spans: the client recorded the op root span, the
	// request's send and the response's recv; the master chained
	// recv -> rules -> send. Each node's /debug/trace?id= serves its
	// own half; merged (what boom-trace does), they assemble into one
	// tree.
	clSpans := cl.Tracer().ByTrace(traceID)
	clKindSet := map[string]bool{}
	for _, sp := range clSpans {
		clKindSet[sp.Kind] = true
	}
	if !clKindSet["op"] || !clKindSet["send"] || !clKindSet["recv"] {
		t.Fatalf("client span kinds: %v (%v)", clKindSet, clSpans)
	}
	code, body = httpGet(t, m.Status.URL()+"/debug/trace?id="+traceID)
	if code != 200 {
		t.Fatalf("trace status: %d", code)
	}
	var sp struct {
		Spans     []telemetry.Span `json:"spans"`
		Waterfall string           `json:"waterfall"`
	}
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatal(err)
	}
	mKindSet := map[string]bool{}
	for _, s := range sp.Spans {
		mKindSet[s.Kind] = true
	}
	if !mKindSet["recv"] || !mKindSet["rules"] || !mKindSet["send"] {
		t.Fatalf("master span kinds: %v (%s)", mKindSet, body)
	}
	merged := append(clSpans, sp.Spans...)
	roots := telemetry.AssembleTrace(merged)
	if len(roots) != 1 || roots[0].Kind != "op" {
		t.Fatalf("merged spans did not assemble under the client op root: %d roots", len(roots))
	}
}
