package telemetry

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/overlog"
	"repro/internal/provenance"
)

// provOptions builds the chase options for HTTP queries: local-ring
// only (the status server sees one runtime), but with the event ring's
// spans attached so external nodes still carry their wire history.
func (s *Server) provOptions() provenance.Options {
	return provenance.Options{TraceID: TraceIDOf, TraceEvents: s.src.Tracer.RenderTrace}
}

// derivJSON renders one captured derivation for the ring-dump view.
type derivJSON struct {
	Rule   string   `json:"rule"`
	Head   string   `json:"head"`
	FP     string   `json:"fp"`
	Body   []string `json:"body,omitempty"`
	Agg    int64    `json:"agg,omitempty"`
	To     string   `json:"to,omitempty"`
	Delete bool     `json:"delete,omitempty"`
	Node   string   `json:"node"`
	Time   int64    `json:"time"`
}

func renderDeriv(d overlog.Derivation) derivJSON {
	out := derivJSON{
		Rule:   d.Rule,
		Head:   d.Head.String(),
		FP:     fmt.Sprintf("%016x", d.HeadFP),
		Agg:    d.Agg,
		To:     d.To,
		Delete: d.Delete,
		Node:   d.Node,
		Time:   d.Time,
	}
	for _, ref := range d.Body {
		out.Body = append(out.Body, fmt.Sprintf("%s#%016x", ref.Table, ref.FP))
	}
	return out
}

// handleProv exposes the derivation-lineage capture:
//
//	/debug/prov                  capture state and per-table ring sizes
//	/debug/prov?table=T          the ring for T (?limit=/?offset= page it)
//	/debug/prov?table=T&fp=HEX   derivation DAG for one fingerprint
//	/debug/prov?q=PATTERN        derivation DAGs for a tuple pattern,
//	                             e.g. ?q=path(1,_)
//	/debug/prov?watch=T&cap=N    enable capture for T (N optional;
//	                             T=* watches every user table)
//	/debug/prov?off=T            disable capture for T (T=* for all)
//
// DAG responses include a "rendered" field with the same tree the REPL
// \why command prints. Toggles go through the sys::prov relation, so a
// capture enabled here is visible to (and revocable by) Overlog rules.
func (s *Server) handleProv(w http.ResponseWriter, r *http.Request) {
	if s.src.WithRuntime == nil {
		http.Error(w, "no runtime attached", http.StatusNotFound)
		return
	}
	q := r.URL.Query()

	if watch := q.Get("watch"); watch != "" {
		capN := overlog.DefaultProvenanceCap
		if n, err := strconv.Atoi(q.Get("cap")); err == nil && n > 0 {
			capN = n
		}
		s.src.WithRuntime(func(rt *overlog.Runtime) {
			rt.EnableProvenance(watch, capN)
		})
		writeJSON(w, map[string]interface{}{"watching": watch, "cap": capN})
		return
	}
	if off := q.Get("off"); off != "" {
		s.src.WithRuntime(func(rt *overlog.Runtime) {
			rt.DisableProvenance(off)
		})
		writeJSON(w, map[string]interface{}{"disabled": off})
		return
	}

	if pattern := q.Get("q"); pattern != "" {
		var roots []*provenance.Node
		var perr error
		s.src.WithRuntime(func(rt *overlog.Runtime) {
			roots, perr = provenance.WhyPattern(rt, pattern, s.provOptions())
		})
		if perr != nil {
			http.Error(w, perr.Error(), http.StatusBadRequest)
			return
		}
		rendered := make([]string, len(roots))
		for i, root := range roots {
			rendered[i] = provenance.Format(root)
		}
		writeJSON(w, map[string]interface{}{
			"node":     s.src.Addr,
			"pattern":  pattern,
			"matches":  len(roots),
			"roots":    roots,
			"rendered": rendered,
		})
		return
	}

	if table := q.Get("table"); table != "" {
		if fpHex := q.Get("fp"); fpHex != "" {
			fp, err := strconv.ParseUint(fpHex, 16, 64)
			if err != nil {
				http.Error(w, "bad fp "+fpHex, http.StatusBadRequest)
				return
			}
			var root *provenance.Node
			s.src.WithRuntime(func(rt *overlog.Runtime) {
				root = provenance.WhyFP(rt, table, fp, s.provOptions())
			})
			writeJSON(w, map[string]interface{}{
				"node":     s.src.Addr,
				"root":     root,
				"rendered": provenance.Format(root),
			})
			return
		}
		limit, offset := pageParams(r, 200)
		var ds []overlog.Derivation
		s.src.WithRuntime(func(rt *overlog.Runtime) {
			ds = rt.Derivations(table)
		})
		lo, hi := pageSlice(len(ds), limit, offset)
		rows := make([]derivJSON, 0, hi-lo)
		for _, d := range ds[lo:hi] {
			rows = append(rows, renderDeriv(d))
		}
		writeJSON(w, map[string]interface{}{
			"node":        s.src.Addr,
			"table":       table,
			"captured":    len(ds),
			"offset":      lo,
			"limit":       limit,
			"derivations": rows,
		})
		return
	}

	type ringInfo struct {
		Table    string `json:"table"`
		Captured int    `json:"captured"`
	}
	var enabled bool
	var rings []ringInfo
	s.src.WithRuntime(func(rt *overlog.Runtime) {
		enabled = rt.ProvenanceEnabled()
		for _, name := range rt.ProvenanceTables() {
			rings = append(rings, ringInfo{name, len(rt.Derivations(name))})
		}
	})
	sort.Slice(rings, func(i, j int) bool { return rings[i].Table < rings[j].Table })
	writeJSON(w, map[string]interface{}{
		"node":    s.src.Addr,
		"enabled": enabled,
		"tables":  rings,
	})
}

// handleProfile serves the per-rule fixpoint profiler: wall time,
// fire/retraction counts per rule (hottest first), and per-stratum
// iteration histograms. ?enable=1 / ?disable=1 toggle the
// wall-clock-and-histogram collection (the fire counters are always
// on); pair with /debug/pprof for Go-level profiles of the same node.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.src.WithRuntime == nil {
		http.Error(w, "no runtime attached", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	toggle := func(on bool) {
		s.src.WithRuntime(func(rt *overlog.Runtime) { rt.SetProfiling(on) })
	}
	if q.Get("enable") != "" {
		toggle(true)
	} else if q.Get("disable") != "" {
		toggle(false)
	}

	var profiling bool
	var rules []overlog.RuleProfile
	var strata []overlog.StratumProfile
	s.src.WithRuntime(func(rt *overlog.Runtime) {
		profiling = rt.Profiling()
		rules = rt.RuleProfiles()
		strata = rt.StratumProfiles()
	})
	sort.SliceStable(rules, func(i, j int) bool {
		if rules[i].WallNS != rules[j].WallNS {
			return rules[i].WallNS > rules[j].WallNS
		}
		return rules[i].Fires > rules[j].Fires
	})
	writeJSON(w, map[string]interface{}{
		"node":         s.src.Addr,
		"profiling":    profiling,
		"iter_buckets": overlog.IterBuckets,
		"rules":        rules,
		"strata":       strata,
	})
}
