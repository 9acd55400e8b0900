package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/overlog"
)

// serveTestNode builds a stepped runtime with a program, metrics and an
// event ring, fronted by a status server, mirroring how transports wire
// real nodes (serialized runtime access).
func serveTestNode(t *testing.T) (*Server, *Registry, *Tracer) {
	t.Helper()
	rt := overlog.NewRuntime("n1")
	if err := rt.InstallSource(`
		table kv(K: string, V: int) keys(0);
		event bump(K: string);
		r1 kv(K, 1) :- bump(K);
	`); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	AttachRuntime(reg, "", rt)
	var mu sync.Mutex
	withRT := func(fn func(*overlog.Runtime)) {
		mu.Lock()
		defer mu.Unlock()
		fn(rt)
	}
	tr := NewTracer(64)
	tr.Record(Span{TraceID: "t-1", SpanID: "n1#1", Node: "n1", Kind: "op", Op: "bump",
		StartMS: 5, EndMS: 5, Detail: "bump x"})
	rt.Step(1, []overlog.Tuple{overlog.NewTuple("bump", overlog.Str("x"))})
	rt.Step(2, []overlog.Tuple{overlog.NewTuple("bump", overlog.Str("y"))})

	srv, err := Serve("127.0.0.1:0", Source{
		Role: "test", Addr: "n1", Registry: reg, Tracer: tr, WithRuntime: withRT,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, reg, tr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestServerMetricsAndHealthz(t *testing.T) {
	srv, _, _ := serveTestNode(t)
	code, body := get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status: %d", code)
	}
	for _, want := range []string{
		"# TYPE boom_steps_total counter",
		"boom_steps_total 2",
		"boom_tuples_stored",
		"boom_fixpoint_ms_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
	code, body = get(t, srv.URL()+"/healthz")
	var hz map[string]interface{}
	if err := json.Unmarshal([]byte(body), &hz); err != nil || code != 200 {
		t.Fatalf("healthz %d: %v / %s", code, err, body)
	}
	if hz["status"] != "ok" || hz["role"] != "test" || hz["addr"] != "n1" {
		t.Fatalf("healthz: %v", hz)
	}
}

func TestServerTables(t *testing.T) {
	srv, _, _ := serveTestNode(t)
	code, body := get(t, srv.URL()+"/debug/tables")
	if code != 200 {
		t.Fatalf("tables status: %d", code)
	}
	var infos []struct {
		Name   string `json:"name"`
		Tuples int    `json:"tuples"`
	}
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("tables json: %v / %s", err, body)
	}
	found := false
	for _, ti := range infos {
		if ti.Name == "kv" {
			found = true
			if ti.Tuples != 2 {
				t.Fatalf("kv tuples: %d", ti.Tuples)
			}
		}
	}
	if !found {
		t.Fatalf("kv missing from %s", body)
	}

	code, body = get(t, srv.URL()+"/debug/tables?table=kv")
	if code != 200 || !strings.Contains(body, `"columns"`) || !strings.Contains(body, `\"x\"`) {
		t.Fatalf("kv dump %d:\n%s", code, body)
	}
	code, _ = get(t, srv.URL()+"/debug/tables?table=nope")
	if code != 404 {
		t.Fatalf("unknown table status: %d", code)
	}
}

func TestServerRulesAndCatalog(t *testing.T) {
	srv, _, _ := serveTestNode(t)
	code, body := get(t, srv.URL()+"/debug/rules")
	if code != 200 || !strings.Contains(body, `"r1"`) {
		t.Fatalf("rules %d:\n%s", code, body)
	}
	var rules []struct {
		Rule  string `json:"rule"`
		Fires int64  `json:"fires"`
	}
	if err := json.Unmarshal([]byte(body), &rules); err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Rule == "r1" && r.Fires != 2 {
			t.Fatalf("r1 fires: %d", r.Fires)
		}
	}

	code, body = get(t, srv.URL()+"/debug/catalog")
	if code != 200 {
		t.Fatalf("catalog status: %d", code)
	}
	var cat map[string][][]string
	if err := json.Unmarshal([]byte(body), &cat); err != nil {
		t.Fatalf("catalog json: %v / %s", err, body)
	}
	if len(cat["sys::decl"]) == 0 || len(cat["sys::rule"]) == 0 || len(cat["sys::atom"]) == 0 {
		t.Fatalf("catalog empty: %s", body)
	}
}

func TestServerTrace(t *testing.T) {
	srv, _, tr := serveTestNode(t)
	tr.Record(Span{Node: "n1", Kind: "send", Op: "bump", StartMS: 6, EndMS: 6, Detail: "to n2"})

	code, body := get(t, srv.URL()+"/debug/trace?id=t-1")
	if code != 200 {
		t.Fatalf("trace status: %d", code)
	}
	var one struct {
		TraceID string `json:"trace_id"`
		Spans   []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != "t-1" || len(one.Spans) != 1 || one.Spans[0].Detail != "bump x" {
		t.Fatalf("trace: %s", body)
	}

	// The unfiltered page holds untraced events too.
	code, body = get(t, srv.URL()+"/debug/trace?limit=1")
	var recent struct {
		Total int64  `json:"total"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &recent); err != nil || code != 200 {
		t.Fatalf("recent %d: %v / %s", code, err, body)
	}
	if recent.Total != 2 || len(recent.Spans) != 1 || recent.Spans[0].Kind != "send" ||
		recent.Spans[0].TraceID != "" {
		t.Fatalf("recent: %s", body)
	}
}

func TestServerTablesPagination(t *testing.T) {
	srv, _, _ := serveTestNode(t)
	code, body := get(t, srv.URL()+"/debug/tables?table=kv&limit=1")
	var page struct {
		Tuples int        `json:"tuples"`
		Offset int        `json:"offset"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil || code != 200 {
		t.Fatalf("page %d: %v / %s", code, err, body)
	}
	if page.Tuples != 2 || len(page.Rows) != 1 {
		t.Fatalf("limit=1 page: %s", body)
	}
	first := page.Rows[0][0]
	code, body = get(t, srv.URL()+"/debug/tables?table=kv&limit=1&offset=1")
	if err := json.Unmarshal([]byte(body), &page); err != nil || code != 200 {
		t.Fatalf("offset page %d: %v / %s", code, err, body)
	}
	if page.Offset != 1 || len(page.Rows) != 1 || page.Rows[0][0] == first {
		t.Fatalf("offset=1 page should hold the other tuple: %s", body)
	}
	// Past-the-end offsets return an empty page, not an error.
	code, body = get(t, srv.URL()+"/debug/tables?table=kv&offset=99")
	if err := json.Unmarshal([]byte(body), &page); err != nil || code != 200 || len(page.Rows) != 0 {
		t.Fatalf("past-end page %d: %s", code, body)
	}
}

func TestServerTracePagination(t *testing.T) {
	srv, _, tr := serveTestNode(t)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Node: "n1", Kind: "op", Op: "bump", StartMS: int64(10 + i), EndMS: int64(10 + i)})
	}
	// 6 events buffered; limit=2&offset=1 must return the 4th and 5th.
	code, body := get(t, srv.URL()+"/debug/trace?limit=2&offset=1")
	var page struct {
		Buffered int    `json:"buffered"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil || code != 200 {
		t.Fatalf("trace page %d: %v / %s", code, err, body)
	}
	if page.Buffered != 6 || len(page.Spans) != 2 {
		t.Fatalf("trace page: %s", body)
	}
	if page.Spans[0].StartMS != 12 || page.Spans[1].StartMS != 13 {
		t.Fatalf("offset=1 window = [%d, %d], want [12, 13]",
			page.Spans[0].StartMS, page.Spans[1].StartMS)
	}
}

func TestServerProvAndProfile(t *testing.T) {
	srv, _, _ := serveTestNode(t)

	// Initially: capture off, no rings.
	code, body := get(t, srv.URL()+"/debug/prov")
	if code != 200 || !strings.Contains(body, `"enabled": false`) {
		t.Fatalf("prov initial %d:\n%s", code, body)
	}
	// Toggle capture on over HTTP, then drive a derivation.
	if code, _ = get(t, srv.URL()+"/debug/prov?watch=kv&cap=8"); code != 200 {
		t.Fatalf("watch toggle: %d", code)
	}
	if code, _ = get(t, srv.URL()+"/debug/profile?enable=1"); code != 200 {
		t.Fatalf("profile toggle: %d", code)
	}
	srv.src.WithRuntime(func(rt *overlog.Runtime) {
		if _, err := rt.Step(3, []overlog.Tuple{overlog.NewTuple("bump", overlog.Str("z"))}); err != nil {
			t.Fatal(err)
		}
	})

	code, body = get(t, srv.URL()+"/debug/prov")
	if code != 200 || !strings.Contains(body, `"enabled": true`) || !strings.Contains(body, `"kv"`) {
		t.Fatalf("prov after watch %d:\n%s", code, body)
	}
	// Ring dump carries the derivation and its fingerprint.
	code, body = get(t, srv.URL()+"/debug/prov?table=kv")
	var ring struct {
		Captured    int `json:"captured"`
		Derivations []struct {
			Rule string `json:"rule"`
			FP   string `json:"fp"`
		} `json:"derivations"`
	}
	if err := json.Unmarshal([]byte(body), &ring); err != nil || code != 200 {
		t.Fatalf("ring %d: %v / %s", code, err, body)
	}
	if ring.Captured != 1 || ring.Derivations[0].Rule != "r1" {
		t.Fatalf("ring: %s", body)
	}
	// Fingerprint lookup returns the rendered DAG.
	code, body = get(t, srv.URL()+"/debug/prov?table=kv&fp="+ring.Derivations[0].FP)
	if code != 200 || !strings.Contains(body, "rule r1") {
		t.Fatalf("fp DAG %d:\n%s", code, body)
	}
	// Pattern query resolves through the same chase.
	code, body = get(t, srv.URL()+`/debug/prov?q=`+url.QueryEscape(`kv("z", _)`))
	if code != 200 || !strings.Contains(body, `"matches": 1`) || !strings.Contains(body, "rule r1") {
		t.Fatalf("pattern DAG %d:\n%s", code, body)
	}
	if code, _ = get(t, srv.URL()+"/debug/prov?q=nosuch(_)"); code != 400 {
		t.Fatalf("bad pattern status: %d", code)
	}

	// Profiler: r1 fired during the profiled step, so wall time exists.
	code, body = get(t, srv.URL()+"/debug/profile")
	var prof struct {
		Profiling bool `json:"profiling"`
		Rules     []struct {
			Rule   string `json:"rule"`
			Fires  int64  `json:"fires"`
			WallNS int64  `json:"wall_ns"`
		} `json:"rules"`
		Strata []struct {
			Steps int64 `json:"steps"`
		} `json:"strata"`
	}
	if err := json.Unmarshal([]byte(body), &prof); err != nil || code != 200 {
		t.Fatalf("profile %d: %v / %s", code, err, body)
	}
	if !prof.Profiling || len(prof.Rules) == 0 || prof.Rules[0].Rule != "r1" || prof.Rules[0].Fires != 3 {
		t.Fatalf("profile: %s", body)
	}
	if prof.Rules[0].WallNS == 0 || len(prof.Strata) == 0 || prof.Strata[0].Steps == 0 {
		t.Fatalf("profiled step attributed no wall time / strata: %s", body)
	}

	// Toggles off again.
	get(t, srv.URL()+"/debug/prov?off=*")
	get(t, srv.URL()+"/debug/profile?disable=1")
	_, body = get(t, srv.URL()+"/debug/prov")
	if !strings.Contains(body, `"enabled": false`) {
		t.Fatalf("prov still enabled after off:\n%s", body)
	}
	_, body = get(t, srv.URL()+"/debug/profile")
	if !strings.Contains(body, `"profiling": false`) {
		t.Fatalf("profiling still on after disable:\n%s", body)
	}
}

func TestServerPprofIndex(t *testing.T) {
	srv, _, _ := serveTestNode(t)
	code, body := get(t, srv.URL()+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index %d:\n%s", code, body)
	}
}

func TestServerWithoutRuntimeOrJournal(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Source{Role: "bare", Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/tables", "/debug/rules", "/debug/catalog", "/debug/trace", "/debug/lint", "/debug/prov", "/debug/profile"} {
		if code, _ := get(t, srv.URL()+path); code != 404 {
			t.Fatalf("%s without runtime: %d", path, code)
		}
	}
	if code, _ := get(t, srv.URL()+"/metrics"); code != 200 {
		t.Fatal("metrics should serve")
	}
}

func TestServerLint(t *testing.T) {
	srv, _, _ := serveTestNode(t)
	// kv is written by r1 but never read: the analyzer must flag it.
	code, body := get(t, srv.URL()+"/debug/lint")
	if code != 200 {
		t.Fatalf("lint status: %d", code)
	}
	var resp struct {
		Node     string `json:"node"`
		Findings []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Subject  string `json:"subject"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("lint json: %v / %s", err, body)
	}
	if resp.Node != "n1" {
		t.Fatalf("lint node: %q", resp.Node)
	}
	found := false
	for _, f := range resp.Findings {
		if f.Code == "write-only-table" && f.Subject == "kv" {
			found = true
			if f.Severity != "warn" {
				t.Fatalf("write-only-table severity: %q", f.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("write-only-table finding for kv missing:\n%s", body)
	}
	// The run materializes sys::lint, visible through /debug/tables.
	code, body = get(t, srv.URL()+"/debug/tables?table=sys::lint")
	if code != 200 || !strings.Contains(body, "write-only-table") {
		t.Fatalf("sys::lint dump %d:\n%s", code, body)
	}
}
