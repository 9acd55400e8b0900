package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
)

// Source describes the node a status server exposes. WithRuntime must
// serialize access to the runtime against the node's own step loop
// (transport.Node.Runtime does); it may be nil for registry-only
// servers.
type Source struct {
	Role        string // "master", "datanode", "jobtracker", ...
	Addr        string // the node's Overlog/TCP address
	Registry    *Registry
	Tracer      *Tracer
	WithRuntime func(func(*overlog.Runtime))
	// Extra mounts additional debug endpoints (path → handler), e.g.
	// the transport layer's /debug/transport send-queue snapshot.
	// Paths collide with the built-ins at the mux's discretion; use
	// fresh /debug/... paths.
	Extra map[string]http.HandlerFunc
}

// Server is a per-node status HTTP server.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	src   Source
	start time.Time
}

// Serve starts a status server on addr (host:port; port 0 picks one).
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: status listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, src: src, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/tables", s.handleTables)
	mux.HandleFunc("/debug/rules", s.handleRules)
	mux.HandleFunc("/debug/catalog", s.handleCatalog)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/lint", s.handleLint)
	mux.HandleFunc("/debug/prov", s.handleProv)
	mux.HandleFunc("/debug/profile", s.handleProfile)
	// net/http/pprof registers on DefaultServeMux; re-export its
	// handlers on this custom mux so every node's status port carries
	// the Go profiler too.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range src.Extra {
		mux.HandleFunc(path, h)
	}
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		var series []MetricJSON
		if s.src.Registry != nil {
			series = s.src.Registry.JSONSnapshot()
		}
		if series == nil {
			series = []MetricJSON{}
		}
		writeJSON(w, map[string]interface{}{
			"node":    s.src.Addr,
			"role":    s.src.Role,
			"metrics": series,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.src.Registry == nil {
		return
	}
	_ = s.src.Registry.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]interface{}{
		"status":    "ok",
		"role":      s.src.Role,
		"addr":      s.src.Addr,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// tupleRows renders tuples as string matrices (JSON-friendly without
// exposing Value internals).
func tupleRows(ts []overlog.Tuple, limit int) [][]string {
	if limit > 0 && len(ts) > limit {
		ts = ts[:limit]
	}
	rows := make([][]string, len(ts))
	for i, tp := range ts {
		row := make([]string, len(tp.Vals))
		for j, v := range tp.Vals {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return rows
}

// pageParams reads ?limit= and ?offset= (limit falls back to the given
// default).
func pageParams(r *http.Request, defLimit int) (limit, offset int) {
	limit = defLimit
	if n, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && n > 0 {
		limit = n
	}
	if n, err := strconv.Atoi(r.URL.Query().Get("offset")); err == nil && n > 0 {
		offset = n
	}
	return limit, offset
}

// pageSlice applies (limit, offset) to a length, returning the [lo, hi)
// window.
func pageSlice(n, limit, offset int) (lo, hi int) {
	if offset > n {
		offset = n
	}
	lo, hi = offset, n
	if limit > 0 && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi
}

// handleTables lists every table with its size; ?table=NAME dumps the
// tuples, paginated with ?limit=N (default 200) and ?offset=M over the
// sorted tuple order, so a loaded master's million-row table pages
// instead of dumping.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if s.src.WithRuntime == nil {
		http.Error(w, "no runtime attached", http.StatusNotFound)
		return
	}
	name := r.URL.Query().Get("table")
	limit, offset := pageParams(r, 200)
	if name != "" {
		var resp interface{}
		s.src.WithRuntime(func(rt *overlog.Runtime) {
			tbl := rt.Table(name)
			if tbl == nil {
				return
			}
			ts := tbl.Tuples()
			overlog.SortTuples(ts)
			lo, hi := pageSlice(len(ts), limit, offset)
			cols := make([]string, 0, len(tbl.Decl().Cols))
			for _, c := range tbl.Decl().Cols {
				cols = append(cols, c.Name)
			}
			resp = map[string]interface{}{
				"table":   name,
				"columns": cols,
				"tuples":  tbl.Len(),
				"offset":  lo,
				"limit":   limit,
				"rows":    tupleRows(ts[lo:hi], 0),
			}
		})
		if resp == nil {
			http.Error(w, "unknown table "+name, http.StatusNotFound)
			return
		}
		writeJSON(w, resp)
		return
	}
	type tinfo struct {
		Name   string `json:"name"`
		Arity  int    `json:"arity"`
		Event  bool   `json:"event"`
		Tuples int    `json:"tuples"`
	}
	var out []tinfo
	catalog := overlog.CatalogRelations()
	s.src.WithRuntime(func(rt *overlog.Runtime) {
		for _, n := range rt.TableNames() {
			if slices.Contains(catalog, n) {
				continue // /debug/catalog serves them, rendered on demand
			}
			tbl := rt.Table(n)
			out = append(out, tinfo{n, tbl.Decl().Arity(), tbl.Decl().Event, tbl.Len()})
		}
	})
	writeJSON(w, out)
}

// handleRules serves per-rule evaluation and firing counts (the
// metaprogrammed rule profiler, as an endpoint), rules sharing a name
// summed.
func (s *Server) handleRules(w http.ResponseWriter, _ *http.Request) {
	if s.src.WithRuntime == nil {
		http.Error(w, "no runtime attached", http.StatusNotFound)
		return
	}
	type rinfo struct {
		Rule     string `json:"rule"`
		Evals    int64  `json:"evals"`
		AltEvals int64  `json:"alt_evals"`
		Fires    int64  `json:"fires"`
	}
	var out []rinfo
	s.src.WithRuntime(func(rt *overlog.Runtime) {
		at := map[string]int{}
		for _, p := range rt.RuleProfiles() {
			i, ok := at[p.Rule]
			if !ok {
				i = len(out)
				at[p.Rule] = i
				out = append(out, rinfo{Rule: p.Rule})
			}
			out[i].Evals += p.Evals
			out[i].AltEvals += p.AltEvals
			out[i].Fires += p.Fires
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fires != out[j].Fires {
			return out[i].Fires > out[j].Fires
		}
		return out[i].Rule < out[j].Rule
	})
	writeJSON(w, out)
}

// handleCatalog dumps the sys:: catalog relations — the installed
// program, described by the program itself — rendering them if no rule
// has yet.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	if s.src.WithRuntime == nil {
		http.Error(w, "no runtime attached", http.StatusNotFound)
		return
	}
	resp := map[string]interface{}{}
	s.src.WithRuntime(func(rt *overlog.Runtime) {
		for _, sys := range overlog.CatalogRelations() {
			tbl := rt.Table(sys)
			if tbl == nil {
				continue
			}
			ts := tbl.Tuples()
			overlog.SortTuples(ts)
			resp[sys] = tupleRows(ts, 0)
		}
	})
	writeJSON(w, resp)
}

// handleLint runs the static analyzer over the node's live catalog and
// serves the findings. Each run also refreshes the sys::lint relation,
// so rules and the /debug/tables endpoint see the same diagnostics.
func (s *Server) handleLint(w http.ResponseWriter, _ *http.Request) {
	if s.src.WithRuntime == nil {
		http.Error(w, "no runtime attached", http.StatusNotFound)
		return
	}
	var ds []analysis.Diagnostic
	s.src.WithRuntime(func(rt *overlog.Runtime) {
		ds = analysis.SelfLint(rt)
	})
	if ds == nil {
		ds = []analysis.Diagnostic{}
	}
	writeJSON(w, map[string]interface{}{
		"node":     s.src.Addr,
		"role":     s.src.Role,
		"findings": ds,
	})
}

// handleTrace serves the event ring. ?id=TRACE returns one trace's
// spans in canonical order, the nodes they touch and a rendered
// waterfall. Otherwise it returns a page of the newest entries, traced
// or not — ?limit=N (default 100) sized, with ?offset=M skipping the M
// most recent, so a client can walk backwards through the buffer page
// by page — with total (ever recorded), buffered (retained) and
// evicted (total - buffered), so the view reports what it lost.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.src.Tracer == nil {
		http.Error(w, "no tracer attached", http.StatusNotFound)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		spans := s.src.Tracer.ByTrace(id)
		writeJSON(w, map[string]interface{}{
			"trace_id":  id,
			"node":      s.src.Addr,
			"nodes":     TraceNodes(spans),
			"spans":     spans,
			"waterfall": Waterfall(AssembleTrace(spans)),
		})
		return
	}
	limit, offset := pageParams(r, 100)
	spans, total := s.src.Tracer.snapshot()
	hi := len(spans) - offset
	if hi < 0 {
		hi = 0
	}
	lo := hi - limit
	if lo < 0 {
		lo = 0
	}
	writeJSON(w, map[string]interface{}{
		"node":     s.src.Addr,
		"total":    total,
		"buffered": len(spans),
		"evicted":  total - int64(len(spans)),
		"offset":   offset,
		"limit":    limit,
		"spans":    spans[lo:hi],
	})
}
