// Package provenance reconstructs derivation lineage from the bounded
// capture rings maintained by internal/overlog (the sys::prov
// metaprogramming relation) and renders it as a DAG answering the
// debugging question every BOOM session asks: why does this tuple
// exist?
//
// Lineage is stored as fingerprints, not pointers, so reconstruction
// is a chase: find the most recent derivation record whose head
// fingerprint matches, then recurse into the body fingerprints —
// anchored at the node that ran the rule. When a tuple has no local
// derivation record, the chase consults peer runtimes: a record with a
// destination set explains a tuple that arrived over the wire, which
// is how a tuple on a backup master explains back to the rule firing
// on the primary. Cross-node event-ring spans (keyed by the request IDs
// that ride WireMsg.TraceID) are attached through the TraceID /
// TraceEvents options — the package depends only on internal/overlog,
// so every surface (telemetry server included) can embed it.
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlog"
)

// Node is one vertex of a derivation DAG.
type Node struct {
	Table string `json:"table"`
	FP    string `json:"fp"`              // hex fingerprint (identity)
	Tuple string `json:"tuple,omitempty"` // rendered tuple when known

	Rule   string `json:"rule,omitempty"`   // deriving rule; "" when external
	Origin string `json:"origin,omitempty"` // node that ran the rule
	To     string `json:"to,omitempty"`     // rule routed the head to this node
	Time   int64  `json:"time,omitempty"`   // step clock at derivation
	Agg    int64  `json:"agg,omitempty"`    // aggregate over this many bindings

	Remote    bool `json:"remote,omitempty"`    // derivation found on a peer, not the asked node
	External  bool `json:"external,omitempty"`  // no record: base fact, input, or evicted from ring
	Truncated bool `json:"truncated,omitempty"` // depth/size limit or cycle cut the chase here

	Children []*Node  `json:"children,omitempty"`
	Trace    []string `json:"trace,omitempty"` // rendered ring spans for this tuple's trace ID
}

// Options bounds and extends a Why chase.
type Options struct {
	// MaxDepth bounds recursion (default 16); MaxNodes bounds the total
	// DAG size (default 256). Hitting either marks nodes Truncated
	// instead of failing, so Why is safe on recursive programs.
	MaxDepth int
	MaxNodes int
	// Peers are other runtimes to consult when a tuple has no local
	// derivation record — typically every node of a sim cluster. The
	// newest matching record wins.
	Peers []*overlog.Runtime
	// TraceID extracts a request-scoped trace ID from a tuple (pass
	// telemetry.TraceIDOf) and TraceEvents returns rendered event-ring
	// spans for an ID (pass (*telemetry.Tracer).RenderTrace). Set both
	// to attach cross-node traces to DAG nodes.
	TraceID     func(overlog.Tuple) string
	TraceEvents func(id string) []string
}

const (
	defaultMaxDepth = 16
	defaultMaxNodes = 256
	maxTraceEvents  = 16
)

type chaseKey struct {
	table string
	fp    uint64
}

type chaser struct {
	opt    Options
	byAddr map[string]*overlog.Runtime
	all    []*overlog.Runtime // asked runtime first, then peers
	nodes  int
	onPath map[chaseKey]bool
	memo   map[chaseKey]*Node
}

// Why explains one tuple of table on rt, returning the derivation DAG
// rooted at it. The chase is cycle-safe: recursive derivations are cut
// with Truncated nodes rather than looping.
func Why(rt *overlog.Runtime, table string, tp overlog.Tuple, opt Options) *Node {
	c := newChaser(rt, opt)
	return c.explain(rt, table, tp.Fingerprint(), tp.String(), 0)
}

// WhyFP explains by fingerprint alone (as used by /debug/prov links,
// where the caller has a ring dump but not the tuple).
func WhyFP(rt *overlog.Runtime, table string, fp uint64, opt Options) *Node {
	c := newChaser(rt, opt)
	return c.explain(rt, table, fp, "", 0)
}

// WhyPattern explains every stored tuple matching an atom pattern like
// `chunk(42, _, Owner)` (constants bind, variables and wildcards are
// free), returning one DAG per matching tuple.
func WhyPattern(rt *overlog.Runtime, pattern string, opt Options) ([]*Node, error) {
	table, tuples, err := rt.FindPattern(pattern)
	if err != nil {
		return nil, err
	}
	out := make([]*Node, 0, len(tuples))
	for _, tp := range tuples {
		c := newChaser(rt, opt)
		out = append(out, c.explain(rt, table, tp.Fingerprint(), tp.String(), 0))
	}
	return out, nil
}

func newChaser(rt *overlog.Runtime, opt Options) *chaser {
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = defaultMaxDepth
	}
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = defaultMaxNodes
	}
	c := &chaser{
		opt:    opt,
		byAddr: map[string]*overlog.Runtime{rt.LocalAddr(): rt},
		all:    []*overlog.Runtime{rt},
		onPath: map[chaseKey]bool{},
		memo:   map[chaseKey]*Node{},
	}
	for _, p := range opt.Peers {
		if p == nil || p == rt {
			continue
		}
		if _, dup := c.byAddr[p.LocalAddr()]; dup {
			continue
		}
		c.byAddr[p.LocalAddr()] = p
		c.all = append(c.all, p)
	}
	return c
}

// bestDeriv finds the newest derivation record for (table, fp),
// preferring home's ring, then any peer's (which is how tuples that
// arrived over the wire explain back to their origin).
func (c *chaser) bestDeriv(home *overlog.Runtime, table string, fp uint64) (overlog.Derivation, *overlog.Runtime, bool) {
	if ds := home.DerivationsOf(table, fp); len(ds) > 0 {
		return ds[len(ds)-1], home, true
	}
	var best overlog.Derivation
	var owner *overlog.Runtime
	found := false
	for _, rt := range c.all {
		if rt == home {
			continue
		}
		for _, d := range rt.DerivationsOf(table, fp) {
			if !found || d.Time >= best.Time {
				best, owner, found = d, rt, true
			}
		}
	}
	return best, owner, found
}

func (c *chaser) explain(home *overlog.Runtime, table string, fp uint64, rendered string, depth int) *Node {
	key := chaseKey{table, fp}
	if n, ok := c.memo[key]; ok {
		return n
	}
	n := &Node{Table: table, FP: fmt.Sprintf("%016x", fp), Tuple: rendered}
	c.nodes++
	if c.onPath[key] || depth > c.opt.MaxDepth || c.nodes > c.opt.MaxNodes {
		n.Truncated = true
		return n
	}

	d, owner, ok := c.bestDeriv(home, table, fp)
	if !ok {
		// No record anywhere: external input, base fact, or evicted.
		n.External = true
		if n.Tuple == "" {
			if tp, found := findLive(home, table, fp); found {
				n.Tuple = tp.String()
			}
		}
		c.attachTrace(home, n, fp)
		c.memo[key] = n
		return n
	}
	n.Rule = d.Rule
	n.Origin = d.Node
	n.To = d.To
	n.Time = d.Time
	n.Agg = d.Agg
	n.Remote = owner != home
	if n.Tuple == "" {
		n.Tuple = d.Head.String()
	}
	c.attachTrace(owner, n, fp)

	// Children anchor at the node that ran the rule: body tuples were
	// read from its tables.
	anchor := owner
	if rt, ok := c.byAddr[d.Node]; ok {
		anchor = rt
	}
	c.onPath[key] = true
	for _, ref := range d.Body {
		child := c.explain(anchor, ref.Table, ref.FP, renderRef(anchor, ref), depth+1)
		n.Children = append(n.Children, child)
	}
	delete(c.onPath, key)
	c.memo[key] = n
	return n
}

// renderRef recovers a body tuple's text: from the anchor's ring if it
// has a derivation record, else from live storage.
func renderRef(anchor *overlog.Runtime, ref overlog.DerivRef) string {
	for _, d := range anchor.DerivationsOf(ref.Table, ref.FP) {
		return d.Head.String()
	}
	if tp, found := findLive(anchor, ref.Table, ref.FP); found {
		return tp.String()
	}
	return ""
}

// findLive scans live storage for a tuple with the given fingerprint.
// Linear, but Why is a debugging query, not a hot path.
func findLive(rt *overlog.Runtime, table string, fp uint64) (overlog.Tuple, bool) {
	tbl := rt.Table(table)
	if tbl == nil {
		return overlog.Tuple{}, false
	}
	var out overlog.Tuple
	found := false
	tbl.Scan(func(tp overlog.Tuple) bool {
		if tp.Fingerprint() == fp {
			out, found = tp, true
			return false
		}
		return true
	})
	return out, found
}

// attachTrace pulls rendered ring spans for the node's trace ID,
// when both trace hooks were supplied.
func (c *chaser) attachTrace(rt *overlog.Runtime, n *Node, fp uint64) {
	if c.opt.TraceID == nil || c.opt.TraceEvents == nil {
		return
	}
	var id string
	if tp, found := findLive(rt, n.Table, fp); found {
		id = c.opt.TraceID(tp)
	}
	if id == "" {
		for _, d := range rt.DerivationsOf(n.Table, fp) {
			if id = c.opt.TraceID(d.Head); id != "" {
				break
			}
		}
	}
	if id == "" {
		return
	}
	evs := c.opt.TraceEvents(id)
	if len(evs) > maxTraceEvents {
		evs = evs[len(evs)-maxTraceEvents:]
	}
	n.Trace = evs
}

// Format renders a DAG as an indented tree. Shared subtrees print once
// and are referenced afterwards, so output stays bounded even when the
// DAG fans in heavily.
func Format(root *Node) string {
	var b strings.Builder
	seen := map[*Node]bool{}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		label := n.Tuple
		if label == "" {
			label = fmt.Sprintf("%s#%s", n.Table, n.FP)
		}
		b.WriteString(label)
		switch {
		case n.Truncated:
			b.WriteString("  [truncated]")
		case n.External:
			b.WriteString("  [external]")
		default:
			fmt.Fprintf(&b, "  <- rule %s @ %s t=%d", n.Rule, n.Origin, n.Time)
			if n.To != "" {
				fmt.Fprintf(&b, " (sent to %s)", n.To)
			}
			if n.Agg > 0 {
				fmt.Fprintf(&b, " (aggregate over %d bindings)", n.Agg)
			}
		}
		if seen[n] {
			b.WriteString("  [see above]\n")
			return
		}
		seen[n] = true
		b.WriteByte('\n')
		for _, ev := range n.Trace {
			fmt.Fprintf(&b, "%s| %s\n", strings.Repeat("  ", depth+1), ev)
		}
		for _, ch := range n.Children {
			walk(ch, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// FormatAll renders several DAGs (one per matched tuple), separated by
// blank lines, in a stable order.
func FormatAll(roots []*Node) string {
	parts := make([]string, len(roots))
	for i, r := range roots {
		parts[i] = Format(r)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}
