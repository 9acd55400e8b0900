package chaos

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlog"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Violation is one inv_violation tuple: an invariant observed false on
// a node at a simulated time.
type Violation struct {
	Inv    string
	Node   string
	TimeMS int64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s @%dms: %s", v.Inv, v.Node, v.TimeMS, v.Detail)
}

// Collect sweeps every node's inv_violation relation, materializes the
// rows into that node's sys::invariant catalog table (mirroring how
// analysis.SelfLint fills sys::lint), and returns them sorted by time.
// Harness-level checks can add their own rows with RecordViolation
// before collecting.
func Collect(c *sim.Cluster) []Violation {
	var out []Violation
	for _, addr := range c.Nodes() {
		out = append(out, ScanViolations(c.Node(addr))...)
	}
	SortViolations(out)
	return out
}

// ScanViolations reads one runtime's inv_violation relation and mirrors
// the rows into its sys::invariant catalog table. Both the simulated
// and the live (TCP) harness collect through it; callers owning live
// nodes must serialize access themselves (Node.Runtime).
func ScanViolations(rt *overlog.Runtime) []Violation {
	if rt == nil {
		return nil
	}
	tbl := rt.Table("inv_violation")
	if tbl == nil {
		return nil
	}
	var out []Violation
	sys := rt.Table("sys::invariant")
	tbl.Scan(func(tp overlog.Tuple) bool {
		v := Violation{
			Inv:    tp.Vals[0].AsString(),
			Node:   tp.Vals[1].AsString(),
			TimeMS: tp.Vals[2].AsInt(),
			Detail: tp.Vals[3].AsString(),
		}
		out = append(out, v)
		if sys != nil {
			_, _, _ = sys.Insert(overlog.NewTuple("sys::invariant",
				overlog.Str(v.Inv), overlog.Str(v.Node),
				overlog.Int(v.TimeMS), overlog.Str(v.Detail)))
		}
		return true
	})
	return out
}

// SortViolations orders violations by (time, node), the order Collect
// reports them in.
func SortViolations(out []Violation) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeMS != out[j].TimeMS {
			return out[i].TimeMS < out[j].TimeMS
		}
		return out[i].Node < out[j].Node
	})
}

// RecordViolation inserts a harness-detected violation (e.g. a wrong
// MapReduce output, which no single node's relations can see) into a
// node's inv_violation relation so Collect picks it up uniformly.
func RecordViolation(rt *overlog.Runtime, v Violation) {
	tbl := rt.Table("inv_violation")
	if tbl == nil {
		// The node carries no monitor program; declare the relation so
		// harness findings still land in the catalog.
		if err := rt.InstallSource(invViolationDecl); err != nil {
			return
		}
		tbl = rt.Table("inv_violation")
	}
	_, _, _ = tbl.Insert(overlog.NewTuple("inv_violation",
		overlog.Str(v.Inv), overlog.Addr(v.Node), overlog.Int(v.TimeMS), overlog.Str(v.Detail)))
}

// ExplainViolation renders the derivation DAG of the first violation:
// which monitor rule derived the inv_violation tuple, from which body
// tuples, chased across every node in the cluster. It returns "" when
// there is nothing to explain (no violations, or the node is gone).
// Scenarios run with lineage capture on (sim.WithProvenance), so the
// shrunk counterexample comes with its own causal explanation.
func ExplainViolation(c *sim.Cluster, vs []Violation) string {
	opt := provenance.Options{Peers: c.Runtimes(), TraceID: telemetry.TraceIDOf,
		TraceEvents: c.Tracer().RenderTrace}
	// Prefer the earliest violation a monitor rule derived — harness
	// findings (RecordViolation) are direct inserts with no lineage, so
	// fall back to rendering the first one only when nothing else
	// explains.
	var fallback string
	for _, v := range vs {
		rt := c.Node(v.Node)
		if rt == nil {
			continue
		}
		tp := overlog.NewTuple("inv_violation",
			overlog.Str(v.Inv), overlog.Addr(v.Node), overlog.Int(v.TimeMS), overlog.Str(v.Detail))
		root := provenance.Why(rt, "inv_violation", tp, opt)
		if !root.External {
			return provenance.Format(root)
		}
		if fallback == "" {
			fallback = provenance.Format(root)
		}
	}
	return fallback
}

// Report renders violations plus the tail of the event ring — the
// cross-node record of sends, drops, faults and trace spans leading up
// to the failure — for postmortem reading.
func Report(vs []Violation, tr *telemetry.Tracer, tail int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	evs := tr.Spans()
	if len(evs) == 0 {
		return b.String()
	}
	if tail > 0 && len(evs) > tail {
		evs = evs[len(evs)-tail:]
	}
	fmt.Fprintf(&b, "event ring (last %d events):\n", len(evs))
	for _, ev := range evs {
		line := fmt.Sprintf("  %8dms %-14s %-6s %s", ev.StartMS, ev.Node, ev.Kind, ev.Op)
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		if ev.TraceID != "" {
			line += " [" + ev.TraceID + "]"
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}
