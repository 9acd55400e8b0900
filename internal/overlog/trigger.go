package overlog

import (
	"fmt"
	"strings"
)

// What a step visits.
//
// Every table has a small integer id in its runtime (Table.id), and
// everything a step keeps per table is a slice indexed by it
// (Runtime.ts) beside a list and a bit set of the tables touched. From
// the rules' shape, stratify compiles one plan per stratum:
//
//   - reads: the tables whose change can give a rule of the stratum
//     work. A stratum none of which changed is one bit-set test.
//   - trig: table id -> the (rule, scan position) pairs a new tuple of
//     that table is the frontier of, in rule order. A fixpoint round
//     visits the lists of the tables that have a frontier, merged back
//     into rule order by each entry's rank, so the evaluations that
//     happen happen in the order a walk over every rule would have made
//     them.
//   - per list, a dispatch column: when the frontier-first forms open
//     with a constant on a common stored column (boomfs' twenty-odd
//     rules on request's Op), entries are keyed by it, and a round
//     reaches only the entries whose constant some frontier tuple
//     carries, plus those with none. Skipping the others skips nothing
//     observable: a form whose leading atom fails on every frontier
//     tuple evaluates nothing else.
//
// Naive evaluation (WithNaiveEval) uses none of this: it runs every
// rule of the stratum until nothing changes.

// bitset is a set of table ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(id int)      { b[id>>6] |= 1 << (id & 63) }
func (b bitset) unset(id int)    { b[id>>6] &^= 1 << (id & 63) }
func (b bitset) has(id int) bool { return id>>6 < len(b) && b[id>>6]&(1<<(id&63)) != 0 }

// meets reports whether b shares a member with x or y, neither shorter
// than b.
//
//boomvet:noalloc
func (b bitset) meets(x, y bitset) bool {
	for i, w := range b {
		if w&(x[i]|y[i]) != 0 {
			return true
		}
	}
	return false
}

// stratum is one stratum's evaluation plan.
type stratum struct {
	rules []*compiledRule // every rule, aggregates first: what naive evaluation runs
	// full lists the aggregates and the scan-free rules: evaluated whole
	// on entry when an input changed. fresh: one of them has never run.
	full  []*compiledRule
	fresh bool
	reads bitset
	trig  []*triggerList // by table id; nil where no rule has a scan
}

// triggerList is the entries of one table in one stratum.
type triggerList struct {
	tbl     *Table
	entries []trigger
	// col is the dispatch column (-1: none) and byConst maps the hash of
	// a constant to the entries keyed by it. round numbers the frontiers
	// marked so far.
	col     int
	byConst map[uint64][]int32
	round   uint64
}

// trigger is one (rule, scan position) pair: a new tuple of the table
// at that position is joined by running run with its position runPos
// fed from the frontier — the frontier-first delta variant, or the rule
// itself in textual order where none compiles.
type trigger struct {
	cr     *compiledRule
	pos    int
	run    *compiledRule
	runPos int
	rank   int // place in the stratum's rule-major evaluation order
	// keyed entries are reached only by a frontier with a tuple whose
	// dispatch column holds konst; seen is the last such round.
	keyed bool
	konst Value
	seen  uint64
}

// ruleGuard is the dispatch key of a rule evaluated whole: an aggregate
// whose body opens with constants on an event table. An event table
// holds a subset of the step's delta, so when no delta tuple carries
// the constants the body has no binding.
type ruleGuard struct {
	tbl  *Table
	cols []int
	vals []Value
}

// leadConsts returns the stored columns a form's opening atom compares
// with constants, when it is a scan that evaluates nothing but
// constants before it looks at a row — so a row that differs on one of
// them ends the evaluation with nothing else having run. Only constants
// for which == and encoding equality agree on every value the column
// can hold take part (see encodingEq): those can be found by hash.
func leadConsts(op *bodyOp) (cols []int, vals []Value) {
	if op.kind != opScan {
		return nil, nil
	}
	for _, ce := range op.boundExprs {
		if _, ok := ce.(cconst); !ok {
			return nil, nil
		}
	}
	for i, col := range op.boundCols[:op.plainBound] {
		v := op.boundExprs[i].(cconst).v
		if encodingEq(cconst{v}) || (v.Kind() == KindInt && op.tbl.decl.Cols[col].Type == KindInt) {
			cols = append(cols, col)
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// planStratum compiles the plan of one stratum from its rules, given in
// evaluation order.
func planStratum(rules []*compiledRule, ntables int) *stratum {
	st := &stratum{rules: rules, reads: newBitset(ntables), trig: make([]*triggerList, ntables)}
	rank := 0
	for _, cr := range rules {
		cr.inputs = newBitset(ntables)
		for _, op := range cr.body {
			if op.kind == opScan || op.kind == opNotin {
				cr.inputs.set(op.tbl.id)
				st.reads.set(op.tbl.id)
			}
		}
		if cr.isAgg || len(cr.scanPositions) == 0 {
			st.full = append(st.full, cr)
			st.fresh = st.fresh || !cr.ranOnce
			if cr.group != nil {
				st.reads.set(cr.head.tbl.id)
			}
			if cr.isAgg && len(cr.body) > 0 && cr.body[0].kind == opScan && cr.body[0].tbl.decl.Event {
				if cols, vals := leadConsts(cr.body[0]); len(cols) > 0 {
					cr.guard = &ruleGuard{tbl: cr.body[0].tbl, cols: cols, vals: vals}
				}
			}
			continue
		}
		for _, pos := range cr.scanPositions {
			tg := trigger{cr: cr, pos: pos, run: cr, runPos: pos, rank: rank}
			rank++
			if v := cr.deltaForPos[pos]; v != nil {
				tg.run, tg.runPos = v, v.scanPositions[0]
			}
			tbl := cr.body[pos].tbl
			if st.trig[tbl.id] == nil {
				st.trig[tbl.id] = &triggerList{tbl: tbl, col: -1}
			}
			tl := st.trig[tbl.id]
			tl.entries = append(tl.entries, tg)
		}
	}
	for _, tl := range st.trig {
		if tl != nil {
			tl.planDispatch()
		}
	}
	return st
}

// planDispatch picks the list's dispatch column — the one most entries
// open with a constant on, the lowest of equals — and keys those
// entries by their constant.
func (tl *triggerList) planDispatch() {
	type lead struct {
		cols []int
		vals []Value
	}
	leads := make([]lead, len(tl.entries))
	count := map[int]int{}
	for i := range tl.entries {
		if tg := &tl.entries[i]; tg.runPos == 0 {
			leads[i].cols, leads[i].vals = leadConsts(tg.run.body[0])
			for _, c := range leads[i].cols {
				count[c]++
			}
		}
	}
	for c, n := range count {
		if best := count[tl.col]; n > best || (n == best && c < tl.col) {
			tl.col = c
		}
	}
	if tl.col < 0 {
		return
	}
	tl.byConst = map[uint64][]int32{}
	for i, ld := range leads {
		for j, c := range ld.cols {
			if c == tl.col {
				tg := &tl.entries[i]
				tg.keyed, tg.konst = true, ld.vals[j]
				h := tg.konst.hash(fnvOffset64)
				tl.byConst[h] = append(tl.byConst[h], int32(i))
			}
		}
	}
}

// mark notes which keyed entries the frontier reaches.
//
//boomvet:noalloc
func (tl *triggerList) mark(frontier []Tuple) {
	if tl.col < 0 {
		return
	}
	tl.round++
	for _, tp := range frontier {
		v := tp.Vals[tl.col]
		for _, i := range tl.byConst[v.hash(fnvOffset64)] {
			if tg := &tl.entries[i]; tg.konst.keyEqual(v) {
				tg.seen = tl.round
			}
		}
	}
}

// cursor walks one table's trigger list during a fixpoint round.
type cursor struct {
	tl       *triggerList
	frontier []Tuple
	next     int
}

// head returns the next entry the round's frontier reaches, or nil.
//
//boomvet:noalloc
func (c *cursor) head() *trigger {
	for ; c.next < len(c.tl.entries); c.next++ {
		if tg := &c.tl.entries[c.next]; !tg.keyed || tg.seen == c.tl.round {
			return tg
		}
	}
	return nil
}

// unreached reports whether a rule evaluated whole can be skipped
// because no tuple of the step carries its guard's constants: it would
// find no binding, and it has no group left to retract.
//
//boomvet:noalloc
func (r *Runtime) unreached(cr *compiledRule) bool {
	g := cr.guard
	if g == nil || len(cr.agg.groups) != 0 {
		return false
	}
rows:
	for _, tp := range r.ts[g.tbl.id].delta {
		for i, c := range g.cols {
			if !tp.Vals[c].keyEqual(g.vals[i]) {
				continue rows
			}
		}
		return false
	}
	return true
}

// fireRow is one row of sys::fire: a rule name and the stats blocks of
// the rules that carry it.
type fireRow struct {
	name  string
	stats []*ruleStats
}

// planFireRows decides, once per install, whether any rule reads
// sys::fire and, if so, which rows refresh it.
func (c *catalog) planFireRows() {
	c.fire = nil
	read := false
	for _, cr := range c.rules {
		for _, op := range cr.body {
			read = read || ((op.kind == opScan || op.kind == opNotin) && op.table == "sys::fire")
		}
	}
	if !read {
		return
	}
	at := map[string]int{}
	for _, cr := range c.rules {
		i, ok := at[cr.name]
		if !ok {
			i = len(c.fire)
			at[cr.name] = i
			c.fire = append(c.fire, fireRow{name: cr.name})
		}
		c.fire[i].stats = append(c.fire[i].stats, cr.stats)
	}
}

// explainTriggers renders what makes the rule run.
func (r *Runtime) explainTriggers(b *strings.Builder, cr *compiledRule) {
	if cr.stratum >= len(r.cat.strata) {
		return
	}
	st := r.cat.strata[cr.stratum]
	colName := func(t *Table, col int) string { return t.Name() + "." + t.decl.Cols[col].Name }
	if cr.isAgg || len(cr.scanPositions) == 0 {
		var names []string
		for _, ts := range r.ts {
			if cr.inputs.has(ts.tbl.id) {
				names = append(names, ts.tbl.Name())
			}
		}
		if len(names) == 0 {
			b.WriteString("  triggers: none (evaluated whole, once)\n")
			return
		}
		fmt.Fprintf(b, "  triggers: a change to %s (evaluated whole)\n", strings.Join(names, ", "))
		if g := cr.guard; g != nil {
			for i, c := range g.cols {
				fmt.Fprintf(b, "    dispatch: %s = %s\n", colName(g.tbl, c), g.vals[i])
			}
		}
		return
	}
	b.WriteString("  triggers:\n")
	for _, pos := range cr.scanPositions {
		id := cr.body[pos].tbl.id
		if id >= len(st.trig) || st.trig[id] == nil {
			continue // compiled by an Install that failed before it planned
		}
		tl := st.trig[id]
		for i := range tl.entries {
			tg := &tl.entries[i]
			if tg.cr != cr || tg.pos != pos {
				continue
			}
			fmt.Fprintf(b, "    new %s at %d", tl.tbl.Name(), pos)
			// A constant the frontier atom carries and dispatch does not
			// use is said, with the reason.
			cols, _ := leadConsts(tg.run.body[tg.runPos])
			switch {
			case tg.keyed:
				fmt.Fprintf(b, ": dispatch: %s = %s", colName(tl.tbl, tl.col), tg.konst)
			case len(cols) > 0 && tg.runPos != 0:
				fmt.Fprintf(b, ": dispatch: none (textual order: the constant on %s is tested after the atoms ahead of it have run)",
					colName(tl.tbl, cols[0]))
			case len(cols) > 0:
				fmt.Fprintf(b, ": dispatch: none (constant on %s; %s tuples are dispatched on %s)",
					colName(tl.tbl, cols[0]), tl.tbl.Name(), colName(tl.tbl, tl.col))
			}
			b.WriteString("\n")
		}
	}
}
