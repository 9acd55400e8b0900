package overlog

import (
	"fmt"
	"sort"
	"strings"
)

// Explain renders the compiled plan of one installed rule: its stratum,
// flags, what triggers it (the tables and scan positions whose new
// tuples it joins, and the constant a tuple must carry to reach it),
// the join order with each atom's bound/bind/filter column partition
// and access path, the delta-variant reorderings semi-naive evaluation
// will use and, for an aggregate, whether it is maintained per group or
// recomputed whole (and why). This is a debugging aid in
// the spirit of the paper's metaprogrammed introspection — the catalog
// knows everything about the program, so exposing the physical plan is
// a formatting exercise.
func (r *Runtime) Explain(ruleName string) (string, error) {
	var cr *compiledRule
	for _, c := range r.cat.rules {
		if c.name == ruleName {
			cr = c
			break
		}
	}
	if cr == nil {
		return "", fmt.Errorf("overlog: Explain: no rule named %q", ruleName)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s (program %s)\n", cr.name, cr.program)
	fmt.Fprintf(&b, "  source:  %s\n", cr.src)
	flags := []string{fmt.Sprintf("stratum=%d", cr.stratum)}
	if cr.isAgg {
		flags = append(flags, "aggregate")
	}
	if cr.isDelete {
		flags = append(flags, "delete")
	}
	if cr.isDeferred {
		flags = append(flags, "deferred(next)")
	}
	fmt.Fprintf(&b, "  flags:   %s\n", strings.Join(flags, ", "))
	fmt.Fprintf(&b, "  head:    %s", cr.head.table)
	if cr.head.locCol >= 0 {
		fmt.Fprintf(&b, " (location column %d)", cr.head.locCol)
	}
	if len(cr.head.aggs) > 0 {
		var aggs []string
		for _, a := range cr.head.aggs {
			aggs = append(aggs, fmt.Sprintf("%s@col%d", a.kind, a.col))
		}
		fmt.Fprintf(&b, " aggregates [%s]", strings.Join(aggs, ", "))
	}
	b.WriteString("\n")
	r.explainTriggers(&b, cr)
	b.WriteString("  plan (textual join order):\n")
	r.explainOps(&b, cr, -1, "    ")
	switch {
	case cr.group != nil:
		// How the rule is evaluated once it has run: one group at a time
		// through the seeded form when only these tables changed.
		fmt.Fprintf(&b, "  aggregate: per-group (seeded on %s; atoms carrying the group: %s)\n",
			strings.Join(cr.group.vars, ", "), strings.Join(cr.group.carrying(), ", "))
		r.explainOps(&b, cr.group.seeded, -1, "    ")
	case cr.isAgg:
		fmt.Fprintf(&b, "  aggregate: whole-rule: %s\n", cr.wholeRule)
	}
	if n := len(cr.deltaVariants); n > 0 {
		fmt.Fprintf(&b, "  delta variants (frontier-first reorderings): %d of %d scans\n",
			countNonNil(cr.deltaVariants), n)
		for i, v := range cr.deltaVariants {
			front := cr.body[cr.scanPositions[i]].table
			switch {
			case v == nil:
				fmt.Fprintf(&b, "    new %s: no reordering compiles, textual order\n", front)
			case v == cr:
				fmt.Fprintf(&b, "    new %s: textual order\n", front)
			default:
				fmt.Fprintf(&b, "    new %s:\n", front)
				r.explainOps(&b, v, 0, "      ")
			}
			if v != nil && v.alt != nil {
				// The atom moved ahead of the generator, then the generator.
				q, gen := v.alt.body[v.altAt], v.alt.body[v.altAt+1]
				fmt.Fprintf(&b, "      alternative when len(%s) < len(%s): %s via %s, %s via %s\n",
					q.table, gen.table, q.table, r.accessPath(q, false), gen.table, r.accessPath(gen, false))
			}
		}
	}
	return b.String(), nil
}

func countNonNil(vs []*compiledRule) int {
	n := 0
	for _, v := range vs {
		if v != nil {
			n++
		}
	}
	return n
}

// explainOps lists a compiled body; frontier is the position fed from
// the step's delta instead of the table (-1: none).
func (r *Runtime) explainOps(b *strings.Builder, cr *compiledRule, frontier int, indent string) {
	for i, op := range cr.body {
		switch op.kind {
		case opScan, opNotin:
			kind := "scan "
			if op.kind == opNotin {
				kind = "notin"
			}
			fmt.Fprintf(b, "%s%d. %s %-18s bound=%v bind=%v filter=%v  via %s\n",
				indent, i, kind, op.table, op.boundCols[:op.plainBound], op.bindCols, op.filterCols,
				r.accessPath(op, i == frontier))
		case opCond:
			fmt.Fprintf(b, "%s%d. cond\n", indent, i)
		case opAssign:
			fmt.Fprintf(b, "%s%d. assign slot %d\n", indent, i, op.assignSlot)
		case opTest:
			fmt.Fprintf(b, "%s%d. test slot %d\n", indent, i, op.assignSlot)
		}
	}
}

// accessPath names how a scan finds its candidate rows.
func (r *Runtime) accessPath(op *bodyOp, frontier bool) string {
	switch {
	case frontier:
		return "delta"
	case len(op.boundCols) == 0:
		return "full scan"
	case len(op.boundCols) == op.plainBound:
		return fmt.Sprintf("index %v", op.boundCols)
	}
	t := op.tbl
	keys := make([]string, len(op.boundCols))
	for i, c := range op.boundCols {
		if i < op.plainBound {
			keys[i] = fmt.Sprintf("$%d", c)
		} else {
			keys[i] = exprSig(t.computed[c-len(t.decl.Cols)])
		}
	}
	return "computed-key index [" + strings.Join(keys, ", ") + "]"
}

// ExplainAll renders every installed rule's plan, grouped by stratum —
// the full physical program.
func (r *Runtime) ExplainAll() string {
	byStratum := map[int][]string{}
	for _, cr := range r.cat.rules {
		byStratum[cr.stratum] = append(byStratum[cr.stratum], cr.name)
	}
	var strata []int
	for s := range byStratum {
		strata = append(strata, s)
	}
	sort.Ints(strata)
	var b strings.Builder
	for _, s := range strata {
		names := byStratum[s]
		sort.Strings(names)
		fmt.Fprintf(&b, "stratum %d: %s\n", s, strings.Join(names, ", "))
	}
	return b.String()
}
