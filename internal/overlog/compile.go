package overlog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// InstallError reports a semantic error found while installing a
// program: undeclared tables, arity mismatches, unsafe rules, or
// unstratifiable negation/aggregation.
type InstallError struct {
	Program string
	Line    int
	Msg     string
}

func (e *InstallError) Error() string {
	if e.Program != "" {
		return fmt.Sprintf("overlog: install %s: line %d: %s", e.Program, e.Line, e.Msg)
	}
	return fmt.Sprintf("overlog: install: line %d: %s", e.Line, e.Msg)
}

// --- compiled expressions ---

// cexpr is an expression compiled against a rule's variable slots.
type cexpr interface {
	eval(env []Value, ee EvalEnv) (Value, error)
}

type cconst struct{ v Value }

func (c cconst) eval([]Value, EvalEnv) (Value, error) { return c.v, nil }

type cslot struct{ idx int }

func (c cslot) eval(env []Value, _ EvalEnv) (Value, error) { return env[c.idx], nil }

type cneg struct{ e cexpr }

func (c cneg) eval(env []Value, ee EvalEnv) (Value, error) {
	v, err := c.e.eval(env, ee)
	if err != nil {
		return NilValue, err
	}
	switch v.Kind() {
	case KindInt:
		return Int(-v.AsInt()), nil
	case KindFloat:
		return Float(-v.AsFloat()), nil
	}
	return NilValue, fmt.Errorf("overlog: unary minus on %s", v.Kind())
}

type cbin struct {
	op   BinOp
	l, r cexpr
}

func (c cbin) eval(env []Value, ee EvalEnv) (Value, error) {
	l, err := c.l.eval(env, ee)
	if err != nil {
		return NilValue, err
	}
	r, err := c.r.eval(env, ee)
	if err != nil {
		return NilValue, err
	}
	return applyBinOp(c.op, l, r)
}

func applyBinOp(op BinOp, l, r Value) (Value, error) {
	switch op {
	case OpEQ:
		return Bool(l.Equal(r)), nil
	case OpNE:
		return Bool(!l.Equal(r)), nil
	case OpLT:
		return Bool(l.Compare(r) < 0), nil
	case OpLE:
		return Bool(l.Compare(r) <= 0), nil
	case OpGT:
		return Bool(l.Compare(r) > 0), nil
	case OpGE:
		return Bool(l.Compare(r) >= 0), nil
	}
	// Arithmetic. String + string concatenates.
	if op == OpAdd && (l.Kind() == KindString || l.Kind() == KindAddr) {
		if r.Kind() == KindString || r.Kind() == KindAddr || isNumeric(r.Kind()) {
			return Str(valueToString(l) + valueToString(r)), nil
		}
	}
	if !isNumeric(l.Kind()) || !isNumeric(r.Kind()) {
		return NilValue, fmt.Errorf("overlog: operator %s needs numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	if l.Kind() == KindInt && r.Kind() == KindInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case OpAdd:
			return Int(a + b), nil
		case OpSub:
			return Int(a - b), nil
		case OpMul:
			return Int(a * b), nil
		case OpDiv:
			if b == 0 {
				return NilValue, fmt.Errorf("overlog: integer division by zero")
			}
			return Int(a / b), nil
		case OpMod:
			if b == 0 {
				return NilValue, fmt.Errorf("overlog: integer modulus by zero")
			}
			return Int(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return Float(a + b), nil
	case OpSub:
		return Float(a - b), nil
	case OpMul:
		return Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return NilValue, fmt.Errorf("overlog: float division by zero")
		}
		return Float(a / b), nil
	case OpMod:
		return NilValue, fmt.Errorf("overlog: %% requires integer operands")
	}
	return NilValue, fmt.Errorf("overlog: unhandled operator %s", op)
}

type ccall struct {
	b    *Builtin
	args []cexpr
}

func (c ccall) eval(env []Value, ee EvalEnv) (Value, error) {
	vals := make([]Value, len(c.args))
	for i, a := range c.args {
		v, err := a.eval(env, ee)
		if err != nil {
			return NilValue, err
		}
		vals[i] = v
	}
	return c.b.Fn(ee, vals)
}

type clist struct{ elems []cexpr }

func (c clist) eval(env []Value, ee EvalEnv) (Value, error) {
	vals := make([]Value, len(c.elems))
	for i, e := range c.elems {
		v, err := e.eval(env, ee)
		if err != nil {
			return NilValue, err
		}
		vals[i] = v
	}
	return List(vals...), nil
}

// --- compiled rules ---

// opKind tags compiled body operations.
type opKind uint8

const (
	opScan opKind = iota // positive atom: join against table
	opNotin
	opCond
	opAssign
	// opTest is `X := e` with X already bound, which only a reordered
	// delta variant produces (the atom that binds X moved ahead of the
	// assignment): it passes when X encoding-equals e, the comparison an
	// index probe on X's column makes in the original order.
	opTest
)

// bodyOp is one compiled body conjunct.
type bodyOp struct {
	kind  opKind
	table string // opScan, opNotin
	tbl   *Table // the table's storage, resolved when the atom compiles

	// Atom columns are partitioned into:
	//   bound  — value computable from earlier bindings; probed via index
	//   bind   — variable's first occurrence; binds a slot
	//   filter — variable bound earlier in this same atom; post-filter
	// Wildcards are dropped.
	//
	// planComputedKeys may append computed key columns (Table.computed)
	// to bound: boundCols[plainBound:] are virtual, and the equality
	// tests they were lifted from stay in the body, so those columns
	// only ever pre-filter the candidates.
	boundCols   []int
	boundExprs  []cexpr
	plainBound  int
	bindCols    []int
	bindSlots   []int
	filterCols  []int
	filterSlots []int

	cond       cexpr // opCond
	assignSlot int   // opAssign, opTest
	assignExpr cexpr // opAssign, opTest

	line int

	// Prepared probe plan (built once at install): boundSlots short-cuts
	// expression evaluation when every bound column is a plain variable;
	// valsBuf and candBuf are reusable evaluation buffers. Reuse is safe
	// because execOps only ever advances through the body, so the same
	// operator is never active twice, and a Runtime is single-threaded.
	boundSlots []int
	valsBuf    []Value
	candBuf    []Tuple

	// Probe memo: consecutive bindings often probe this operator with
	// the same bound values (frontier tuples that share a join key, an
	// outer atom that does not bind this one's key). The memo keeps the
	// last probe's key and table generation; on a hit candBuf is still
	// the correct candidate list and MatchInto is skipped entirely.
	// memoVals is preallocated by prepare, so the steady-state probe
	// path still allocates nothing.
	memoOK   bool
	memoGen  uint64
	memoVals []Value
}

// memoHit reports whether the op's last probe of t used these exact
// bound values (encoding equality, matching MatchInto's own filter)
// with the table unchanged since — in which case candBuf already holds
// the correct candidate list.
//
//boomvet:noalloc
func (op *bodyOp) memoHit(t *Table, vals []Value) bool {
	if !op.memoOK || op.memoGen != t.generation {
		return false
	}
	for i := range vals {
		if !vals[i].keyEqual(op.memoVals[i]) {
			return false
		}
	}
	return true
}

//boomvet:noalloc
func (op *bodyOp) memoStore(t *Table, vals []Value) {
	op.memoOK = true
	op.memoGen = t.generation
	copy(op.memoVals, vals)
}

// aggSpec describes one aggregate head position.
type aggSpec struct {
	col  int // head column index
	kind AggKind
	slot int // slot of aggregated variable; -1 for count<_>
}

// headOp is the compiled rule head.
type headOp struct {
	table  string
	tbl    *Table  // nil for Query's synthetic head
	exprs  []cexpr // nil at aggregate positions
	aggs   []aggSpec
	locCol int // column carrying '@', or -1
}

// compiledRule is a rule ready for evaluation.
type compiledRule struct {
	src        *Rule
	name       string // label or synthesized r<N>
	program    string
	nslots     int
	slotNames  []string
	body       []*bodyOp
	head       headOp
	isAgg      bool
	isDelete   bool
	isDeferred bool
	stratum    int
	ranOnce    bool
	// agg holds an aggregate rule's groups across evaluations (see
	// aggCollector in runtime.go); nil unless isAgg. group is the plan
	// for re-evaluating single groups, nil when every evaluation must
	// recompute all of them, for the reason wholeRule gives.
	agg       *aggCollector
	group     *groupPlan
	wholeRule string
	// scanPositions indexes body ops that are opScan, for semi-naive
	// delta placement.
	scanPositions []int
	// deltaVariants[i] is this rule recompiled with the i-th scan atom
	// moved to the front of the body, so delta-driven evaluation probes
	// the frontier first and index-joins the rest (sideways information
	// passing). nil when the rule has at most one body element.
	deltaVariants []*compiledRule
	// deltaForPos is the dispatch table derived from deltaVariants: it
	// maps a body position directly to the variant to run when that
	// position carries the frontier (nil = evaluate in original order).
	deltaForPos []*compiledRule
	// alt is a delta variant's alternative join order (planAlternative):
	// this body with the atom that can key the generator at body[altAt]
	// moved directly ahead of it. Delta evaluation that reaches the
	// generator continues in alt when that atom's table is the smaller.
	alt   *compiledRule
	altAt int

	// inputs has a bit per table the body reads (scan or notin): a rule
	// evaluated whole runs again when one of them changed. guard, on an
	// aggregate whose body opens with constants on an event table, names
	// them: no tuple of the step carrying them means no binding.
	inputs bitset
	guard  *ruleGuard

	// Reusable evaluation buffers (see bodyOp's plan fields for the
	// safety argument). headBuf backs head materialization: duplicate
	// derivations are rejected against storage without allocating. emit
	// is emitHead bound to this form, built once at install.
	envBuf  []Value
	headBuf []Value
	emit    func([]Value) error

	// stats accumulates firing/retraction/wall-time counters; delta
	// variants share their parent's block so counts aggregate no matter
	// which variant ran (see profile.go).
	stats *ruleStats
}

// prepare allocates the rule's evaluation buffers and per-operator
// probe plans. Called once per compilation (including delta variants).
func (cr *compiledRule) prepare() {
	cr.envBuf = make([]Value, cr.nslots)
	cr.headBuf = make([]Value, len(cr.head.exprs))
	for _, op := range cr.body {
		if op.kind == opScan || op.kind == opNotin {
			op.prepareProbe()
		}
	}
}

// prepareProbe builds a scan/notin op's probe plan from its bound
// expressions; planComputedKeys re-runs it after extending them.
func (op *bodyOp) prepareProbe() {
	op.valsBuf = make([]Value, len(op.boundExprs))
	op.memoVals = make([]Value, len(op.boundExprs))
	op.boundSlots = nil
	for _, ce := range op.boundExprs {
		if _, ok := ce.(cslot); !ok {
			return
		}
	}
	if len(op.boundExprs) > 0 {
		op.boundSlots = make([]int, len(op.boundExprs))
		for i, ce := range op.boundExprs {
			op.boundSlots[i] = ce.(cslot).idx
		}
	}
}

// finalizeDelta builds the delta dispatch table once the variants
// exist. Entries stay nil when no (safe) reordered variant is
// available, which the trigger index reads as "original order".
func (cr *compiledRule) finalizeDelta() {
	cr.deltaForPos = make([]*compiledRule, len(cr.body))
	if len(cr.deltaVariants) != len(cr.scanPositions) {
		return
	}
	for i, p := range cr.scanPositions {
		cr.deltaForPos[p] = cr.deltaVariants[i]
	}
}

// forms lists every compiled form of the rule: itself, its reordered
// delta variants, their alternative join orders and, for an aggregate
// maintained per group, its seeded form.
func (cr *compiledRule) forms() []*compiledRule {
	out := []*compiledRule{cr}
	for _, v := range cr.deltaVariants {
		if v != nil && v != cr {
			out = append(out, v)
		}
	}
	for i, n := 0, len(out); i < n; i++ {
		if alt := out[i].alt; alt != nil {
			out = append(out, alt)
		}
	}
	if cr.group != nil {
		out = append(out, cr.group.seeded)
	}
	return out
}

// exprCalls reports whether every builtin a compiled expression can
// call satisfies ok.
func exprCalls(ce cexpr, ok func(*Builtin) bool) bool {
	switch e := ce.(type) {
	case nil, cconst, cslot:
		return true
	case cneg:
		return exprCalls(e.e, ok)
	case cbin:
		return exprCalls(e.l, ok) && exprCalls(e.r, ok)
	case ccall:
		if !ok(e.b) {
			return false
		}
		for _, a := range e.args {
			if !exprCalls(a, ok) {
				return false
			}
		}
		return true
	case clist:
		for _, el := range e.elems {
			if !exprCalls(el, ok) {
				return false
			}
		}
		return true
	}
	return false
}

// exprPure reports whether a compiled expression's value depends only
// on its env bindings and step-constant runtime reads. Impure builtins
// (unique, nextid, random) advance runtime state per call, so their
// evaluation order is observable and must stay serial.
func exprPure(ce cexpr) bool {
	return exprCalls(ce, func(b *Builtin) bool { return !b.Impure })
}

// exprRowOnly is the stricter property an index key needs: the value
// depends on the env bindings alone, not on the node or the clock, so
// it can be computed once when a row is stored and evaluated with no
// EvalEnv at all.
func exprRowOnly(ce cexpr) bool {
	return exprCalls(ce, func(b *Builtin) bool { return !b.Impure && !b.ReadsEnv })
}

// mapSlots rebuilds ce with every slot reference sent through f, which
// may reject a slot (ok=false fails the whole rewrite). n counts the
// references seen.
func mapSlots(ce cexpr, f func(slot int) (int, bool)) (out cexpr, n int, ok bool) {
	switch e := ce.(type) {
	case cconst:
		return e, 0, true
	case cslot:
		idx, ok := f(e.idx)
		return cslot{idx: idx}, 1, ok
	case cneg:
		in, n, ok := mapSlots(e.e, f)
		return cneg{e: in}, n, ok
	case cbin:
		l, nl, okl := mapSlots(e.l, f)
		r, nr, okr := mapSlots(e.r, f)
		return cbin{op: e.op, l: l, r: r}, nl + nr, okl && okr
	case ccall:
		args, n, ok := mapSlotsAll(e.args, f)
		return ccall{b: e.b, args: args}, n, ok
	case clist:
		elems, n, ok := mapSlotsAll(e.elems, f)
		return clist{elems: elems}, n, ok
	}
	return nil, 0, false
}

func mapSlotsAll(ces []cexpr, f func(int) (int, bool)) ([]cexpr, int, bool) {
	out := make([]cexpr, len(ces))
	total, all := 0, true
	for i, ce := range ces {
		m, n, ok := mapSlots(ce, f)
		out[i], total, all = m, total+n, all && ok
	}
	return out, total, all
}

// exprSig renders a compiled expression canonically, slots as $n, so
// two rules that compute the same function of a row name the same
// computed key column.
func exprSig(ce cexpr) string {
	switch e := ce.(type) {
	case cconst:
		if e.v.Kind() == KindFloat {
			return "float:" + e.v.String() // 1.0 prints as 1, the int's literal
		}
		return e.v.String()
	case cslot:
		return fmt.Sprintf("$%d", e.idx)
	case cneg:
		return "-(" + exprSig(e.e) + ")"
	case cbin:
		return "(" + exprSig(e.l) + " " + e.op.String() + " " + exprSig(e.r) + ")"
	case ccall:
		return e.b.Name + "(" + exprSigs(e.args) + ")"
	case clist:
		return "[" + exprSigs(e.elems) + "]"
	}
	return "?"
}

func exprSigs(ces []cexpr) string {
	parts := make([]string, len(ces))
	for i, ce := range ces {
		parts[i] = exprSig(ce)
	}
	return strings.Join(parts, ", ")
}

// ruleCalls reports whether every builtin that any expression the rule
// can evaluate — probe values, conditions, assignments, and head
// columns — can call satisfies ok.
func ruleCalls(cr *compiledRule, ok func(*Builtin) bool) bool {
	for _, op := range cr.body {
		for _, ce := range op.boundExprs {
			if !exprCalls(ce, ok) {
				return false
			}
		}
		if !exprCalls(op.cond, ok) || !exprCalls(op.assignExpr, ok) {
			return false
		}
	}
	for _, ce := range cr.head.exprs {
		if !exprCalls(ce, ok) {
			return false
		}
	}
	return true
}

// ruleCompiler tracks variable slot allocation for one rule.
type ruleCompiler struct {
	cat   *catalog
	rule  *Rule
	prog  string
	slots map[string]int
	names []string
	// reordered marks a delta variant: its leading atom was moved ahead
	// of the elements that used to precede it, so a `:=` may find its
	// variable already bound and compiles to a test (opTest).
	reordered bool
}

func (rc *ruleCompiler) slotOf(name string) (int, bool) {
	s, ok := rc.slots[name]
	return s, ok
}

func (rc *ruleCompiler) newSlot(name string) int {
	s := len(rc.names)
	rc.slots[name] = s
	rc.names = append(rc.names, name)
	return s
}

func (rc *ruleCompiler) errf(line int, format string, args ...interface{}) error {
	return &InstallError{Program: rc.prog, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// compileExpr compiles an expression requiring all variables bound.
func (rc *ruleCompiler) compileExpr(e Expr, line int) (cexpr, error) {
	switch x := e.(type) {
	case *ConstExpr:
		return cconst{v: x.Val}, nil
	case *VarExpr:
		s, ok := rc.slotOf(x.Name)
		if !ok {
			return nil, rc.errf(line, "variable %s used before it is bound in rule %s", x.Name, rc.rule.Head.Table)
		}
		return cslot{idx: s}, nil
	case *WildcardExpr:
		return nil, rc.errf(line, "wildcard _ not allowed in this expression position")
	case *NegExpr:
		inner, err := rc.compileExpr(x.E, line)
		if err != nil {
			return nil, err
		}
		if c, ok := inner.(cconst); ok {
			v, err := cneg{e: c}.eval(nil, nil)
			if err == nil {
				return cconst{v: v}, nil
			}
		}
		return cneg{e: inner}, nil
	case *BinExpr:
		l, err := rc.compileExpr(x.L, line)
		if err != nil {
			return nil, err
		}
		r, err := rc.compileExpr(x.R, line)
		if err != nil {
			return nil, err
		}
		return cbin{op: x.Op, l: l, r: r}, nil
	case *CallExpr:
		b, ok := LookupBuiltin(x.Fn)
		if !ok {
			return nil, rc.errf(line, "unknown function %q", x.Fn)
		}
		if len(x.Args) < b.MinArgs || (b.MaxArgs >= 0 && len(x.Args) > b.MaxArgs) {
			return nil, rc.errf(line, "function %s: wrong argument count %d", x.Fn, len(x.Args))
		}
		args := make([]cexpr, len(x.Args))
		for i, a := range x.Args {
			c, err := rc.compileExpr(a, line)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		return ccall{b: b, args: args}, nil
	case *ListExpr:
		elems := make([]cexpr, len(x.Elems))
		for i, el := range x.Elems {
			c, err := rc.compileExpr(el, line)
			if err != nil {
				return nil, err
			}
			elems[i] = c
		}
		return clist{elems: elems}, nil
	}
	return nil, rc.errf(line, "unsupported expression %T", e)
}

// exprFullyBound reports whether all free variables of e are bound.
func (rc *ruleCompiler) exprFullyBound(e Expr) bool {
	for _, v := range e.freeVars(nil) {
		if _, ok := rc.slotOf(v); !ok {
			return false
		}
	}
	return true
}

// compileAtom compiles a body atom into a scan/notin op.
func (rc *ruleCompiler) compileAtom(a *Atom, negated bool) (*bodyOp, error) {
	decl, ok := rc.cat.decl(a.Table)
	if !ok {
		return nil, rc.errf(a.Line, "undeclared table %q", a.Table)
	}
	if len(a.Terms) != decl.Arity() {
		return nil, rc.errf(a.Line, "table %s has arity %d, atom supplies %d terms", a.Table, decl.Arity(), len(a.Terms))
	}
	op := &bodyOp{kind: opScan, table: a.Table, tbl: rc.cat.tables[a.Table], line: a.Line}
	if negated {
		op.kind = opNotin
	}
	seenInAtom := map[string]int{}
	for col, term := range a.Terms {
		if term.Agg != AggNone {
			return nil, rc.errf(a.Line, "aggregate in body atom %s", a.Table)
		}
		switch x := term.Expr.(type) {
		case *WildcardExpr:
			continue
		case *VarExpr:
			if slot, boundHere := seenInAtom[x.Name]; boundHere {
				op.filterCols = append(op.filterCols, col)
				op.filterSlots = append(op.filterSlots, slot)
				continue
			}
			if slot, ok := rc.slotOf(x.Name); ok {
				op.boundCols = append(op.boundCols, col)
				op.boundExprs = append(op.boundExprs, cslot{idx: slot})
				continue
			}
			if negated {
				return nil, rc.errf(a.Line, "unsafe rule: variable %s in notin %s is not bound by a preceding positive atom", x.Name, a.Table)
			}
			slot := rc.newSlot(x.Name)
			seenInAtom[x.Name] = slot
			op.bindCols = append(op.bindCols, col)
			op.bindSlots = append(op.bindSlots, slot)
		default:
			if !rc.exprFullyBound(term.Expr) {
				return nil, rc.errf(a.Line, "unsafe rule: expression %s in atom %s uses unbound variables", term.Expr, a.Table)
			}
			ce, err := rc.compileExpr(term.Expr, a.Line)
			if err != nil {
				return nil, err
			}
			op.boundCols = append(op.boundCols, col)
			op.boundExprs = append(op.boundExprs, ce)
		}
	}
	op.plainBound = len(op.boundCols)
	return op, nil
}

// compileRule compiles one rule against the catalog.
func (rc *ruleCompiler) compileRule(seq int) (*compiledRule, error) {
	r := rc.rule
	cr := &compiledRule{
		src:        r,
		program:    rc.prog,
		isDelete:   r.Delete,
		isDeferred: r.Deferred,
		isAgg:      r.HasAggregate(),
		stats:      &ruleStats{},
	}
	cr.name = r.Name
	if cr.name == "" {
		cr.name = fmt.Sprintf("%s_r%d", rc.prog, seq)
	}

	// Body, in textual order (the join order, as in P2).
	cr.body = make([]*bodyOp, 0, len(r.Body))
	cr.scanPositions = make([]int, 0, len(r.Body))
	for _, be := range r.Body {
		switch be.Kind {
		case BodyAtom:
			// An "atom" whose table is undeclared but names a builtin is a
			// boolean condition call, e.g. startswith(P, "/x").
			if _, ok := rc.cat.decl(be.Atom.Table); !ok {
				if _, isFn := LookupBuiltin(be.Atom.Table); isFn {
					call := &CallExpr{Fn: be.Atom.Table}
					for _, t := range be.Atom.Terms {
						if t.Loc || t.Agg != AggNone {
							return nil, rc.errf(be.Line, "malformed condition call %s", be.Atom.Table)
						}
						call.Args = append(call.Args, t.Expr)
					}
					ce, err := rc.compileExpr(call, be.Line)
					if err != nil {
						return nil, err
					}
					cr.body = append(cr.body, &bodyOp{kind: opCond, cond: ce, line: be.Line})
					continue
				}
			}
			op, err := rc.compileAtom(be.Atom, false)
			if err != nil {
				return nil, err
			}
			cr.scanPositions = append(cr.scanPositions, len(cr.body))
			cr.body = append(cr.body, op)
		case BodyNotin:
			op, err := rc.compileAtom(be.Atom, true)
			if err != nil {
				return nil, err
			}
			cr.body = append(cr.body, op)
		case BodyCond:
			if !rc.exprFullyBound(be.Cond) {
				return nil, rc.errf(be.Line, "unsafe rule: condition %s uses unbound variables", be.Cond)
			}
			ce, err := rc.compileExpr(be.Cond, be.Line)
			if err != nil {
				return nil, err
			}
			cr.body = append(cr.body, &bodyOp{kind: opCond, cond: ce, line: be.Line})
		case BodyAssign:
			slot, already := rc.slotOf(be.Assign)
			if already && !rc.reordered {
				return nil, rc.errf(be.Line, "variable %s reassigned with := (each variable binds once)", be.Assign)
			}
			if !rc.exprFullyBound(be.Expr) {
				return nil, rc.errf(be.Line, "unsafe rule: assignment to %s uses unbound variables", be.Assign)
			}
			ce, err := rc.compileExpr(be.Expr, be.Line)
			if err != nil {
				return nil, err
			}
			kind := opTest
			if !already {
				kind, slot = opAssign, rc.newSlot(be.Assign)
			}
			cr.body = append(cr.body, &bodyOp{kind: kind, assignSlot: slot, assignExpr: ce, line: be.Line})
		}
	}

	// Head.
	hd, ok := rc.cat.decl(r.Head.Table)
	if !ok {
		return nil, rc.errf(r.Head.Line, "undeclared head table %q", r.Head.Table)
	}
	if len(r.Head.Terms) != hd.Arity() {
		return nil, rc.errf(r.Head.Line, "head %s has arity %d, rule supplies %d terms", r.Head.Table, hd.Arity(), len(r.Head.Terms))
	}
	cr.head = headOp{table: r.Head.Table, tbl: rc.cat.tables[r.Head.Table], locCol: r.Head.LocIndex(),
		exprs: make([]cexpr, hd.Arity())}
	for col, term := range r.Head.Terms {
		if term.Agg != AggNone {
			spec := aggSpec{col: col, kind: term.Agg, slot: -1}
			if v, isVar := term.Expr.(*VarExpr); isVar {
				slot, bound := rc.slotOf(v.Name)
				if !bound {
					return nil, rc.errf(r.Head.Line, "aggregate variable %s is not bound in the body", v.Name)
				}
				spec.slot = slot
			} else if term.Agg != AggCount {
				return nil, rc.errf(r.Head.Line, "aggregate %s requires a variable argument", term.Agg)
			}
			cr.head.aggs = append(cr.head.aggs, spec)
			continue
		}
		if _, isWild := term.Expr.(*WildcardExpr); isWild {
			return nil, rc.errf(r.Head.Line, "wildcard _ not allowed in a rule head")
		}
		if !rc.exprFullyBound(term.Expr) {
			return nil, rc.errf(r.Head.Line, "unsafe rule: head term %s uses unbound variables", term.Expr)
		}
		ce, err := rc.compileExpr(term.Expr, r.Head.Line)
		if err != nil {
			return nil, err
		}
		cr.head.exprs[col] = ce
	}
	if cr.isDelete && cr.isAgg {
		return nil, rc.errf(r.Line, "delete rules may not aggregate")
	}
	if cr.isDelete && cr.head.locCol >= 0 {
		return nil, rc.errf(r.Line, "delete rules may not carry a location specifier (deletions are node-local)")
	}
	cr.nslots = len(rc.names)
	cr.slotNames = rc.names
	cr.prepare()
	return cr, nil
}

// buildDeltaVariants compiles one reordered variant per positive body
// atom: that atom first, remaining elements in original relative order.
// Relative-order preservation keeps every element's dependencies ahead
// of it, so safety is unaffected. Variants share the original's name
// (for rule-firing stats) and flags.
func buildDeltaVariants(cat *catalog, cr *compiledRule, seq int) error {
	src := cr.src
	if len(src.Body) <= 1 || cr.isAgg {
		return nil
	}
	// Identify body-element indexes that compiled to scans, in order.
	var scanElems []int
	for i, be := range src.Body {
		if be.Kind != BodyAtom {
			continue
		}
		// Condition-call atoms (builtins) did not become scans.
		if _, ok := cat.decl(be.Atom.Table); !ok {
			continue
		}
		scanElems = append(scanElems, i)
	}
	if len(scanElems) != len(cr.scanPositions) {
		return &InstallError{Program: cr.program, Line: src.Line,
			Msg: "internal: scan position mismatch building delta variants"}
	}
	for _, elemIdx := range scanElems {
		if elemIdx == scanElems[0] && elemIdx == 0 {
			// Already first; reuse the main compilation.
			cr.deltaVariants = append(cr.deltaVariants, cr)
			planAlternative(cat, cr, seq)
			continue
		}
		reordered := make([]*BodyElem, 0, len(src.Body))
		reordered = append(reordered, src.Body[elemIdx])
		for i, be := range src.Body {
			if i != elemIdx {
				reordered = append(reordered, be)
			}
		}
		variant := &Rule{Name: src.Name, Delete: src.Delete, Deferred: src.Deferred,
			Head: src.Head, Body: reordered, Line: src.Line}
		rc := &ruleCompiler{cat: cat, rule: variant, prog: cr.program, slots: map[string]int{}, reordered: true}
		vcr, err := rc.compileRule(seq)
		if err != nil {
			// The reordering is unsafe for this atom (e.g. one of its
			// argument expressions needs variables bound later); fall
			// back to original-order evaluation for this delta position.
			cr.deltaVariants = append(cr.deltaVariants, nil)
			continue
		}
		vcr.name = cr.name
		vcr.stats = cr.stats
		cr.deltaVariants = append(cr.deltaVariants, vcr)
		planAlternative(cat, vcr, seq)
	}
	return nil
}

// planAlternative gives a delta variant at most one alternative join
// order, chosen from its shape. In the run of consecutive positive atoms
// after the frontier, the generator G is the first full scan that binds
// variables and is followed in the run by an atom Q that could key it:
// Q's terms are variables, constants or wildcards, one of its variables
// is bound before G and one is bound by G. The variant makes |G| probes
// of Q per binding that reaches G; with Q moved directly ahead of G, G
// becomes an index probe, made at most |Q| times. Both orders complete
// the same bindings, and only Q moves, so every condition, := and notin
// (all of which come after the run) sees what it saw. execOps takes the
// alternative when len(Q) < len(G), so it never adds probes. It shares
// the variant's prefix up to G slot for slot, which lets execOps carry
// the prefix's bindings over; a compilation that does not is dropped.
//
// Slots are numbered in order of first occurrence, and the body up to G
// is atoms only, so the slots bound before G are 0..prefix-1 and G's
// own the next len(G.bindSlots).
func planAlternative(cat *catalog, v *compiledRule, seq int) {
	end := 1
	for end < len(v.body) && v.body[end].kind == opScan {
		end++
	}
	prefix := len(v.body[0].bindSlots)
	for g := 1; g < end; g++ {
		gen := v.body[g]
		if len(gen.boundCols) > 0 || len(gen.bindSlots) == 0 {
			prefix += len(gen.bindSlots)
			continue
		}
		for q := g + 1; q < end; q++ {
			if !keysGenerator(v.body[q], prefix, prefix+len(gen.bindSlots)) {
				continue
			}
			rule := *v.src
			rule.Body = slices.Clone(v.src.Body)
			copy(rule.Body[g+1:q+1], v.src.Body[g:q])
			rule.Body[g] = v.src.Body[q]
			rc := &ruleCompiler{cat: cat, rule: &rule, prog: v.program, slots: map[string]int{}, reordered: true}
			alt, err := rc.compileRule(seq)
			if err != nil || alt.nslots != v.nslots || !slices.Equal(alt.slotNames[:prefix], v.slotNames[:prefix]) {
				return
			}
			alt.name, alt.stats = v.name, v.stats
			v.alt, v.altAt = alt, g
			return
		}
		prefix += len(gen.bindSlots)
	}
}

// keysGenerator reports whether atom q could key a generator that binds
// slots gen..genEnd-1, the slots below gen being bound before it: q's
// terms are plain, and it reads one slot of each kind.
func keysGenerator(q *bodyOp, gen, genEnd int) bool {
	early, fromGen := false, false
	for _, ce := range q.boundExprs {
		switch e := ce.(type) {
		case cconst:
		case cslot:
			early = early || e.idx < gen
			fromGen = fromGen || (e.idx >= gen && e.idx < genEnd)
		default:
			return false
		}
	}
	return early && fromGen
}

// groupPlan lets an aggregate rule re-evaluate single groups instead of
// all of them. seeded is the rule's own text compiled with the group
// variables already bound (slots 0..len(vars)-1, in vars order), so
// every occurrence of one in an atom is an index probe and the body
// enumerates one group's bindings. atoms has one entry per scan/notin
// op of the body; head reads the rule's own materialized rows.
type groupPlan struct {
	vars   []string
	seeded *compiledRule
	atoms  []groupAtom
	head   groupAtom
}

// groupAtom maps rows of one atom's table to the groups they can take
// part in. cols[i] is the column holding group variable i; it is nil
// when the atom's own terms do not carry every group variable, and then
// a change to the table can reach any group. A row that differs from
// the atom on a constant column matches it in no group.
type groupAtom struct {
	tbl       *Table
	cols      []int
	constCols []int
	constVals []Value
}

// groupAtomOf reads a seeded form's atom (or head) back as a groupAtom:
// exprs[i] is what the rule puts in column cols[i].
func groupAtomOf(tbl *Table, nvars int, cols []int, exprs []cexpr) groupAtom {
	at := groupAtom{tbl: tbl, cols: make([]int, nvars)}
	found := 0
	for i := range at.cols {
		at.cols[i] = -1
	}
	for i, ce := range exprs {
		switch e := ce.(type) {
		case cconst:
			at.constCols = append(at.constCols, cols[i])
			at.constVals = append(at.constVals, e.v)
		case cslot:
			if e.idx < nvars && at.cols[e.idx] < 0 {
				at.cols[e.idx] = cols[i]
				found++
			}
		}
	}
	if found < nvars {
		at.cols = nil
	}
	return at
}

// planGroups decides, from the rule's shape alone, whether an aggregate
// rule is maintained group by group, and builds the plan. A rule
// qualifies when re-evaluating only the groups that changed rows
// project onto is indistinguishable from recomputing every group:
//
//   - the head is a stored local table the rule maintains (not remote,
//     not `next`, not an event: an event head shows every group on
//     every evaluation);
//   - no body table is an event table (a step's events are the whole
//     input, there is no "unchanged rest");
//   - no expression reads the clock or the node or is impure: such a
//     rule is re-read for every group whenever any input row changes,
//     which is for instance the only thing that ever expires a silent
//     tracker from boommr's free_map_rank;
//   - every group column is a variable or a constant, and at least one
//     is a variable (one constant group is the whole rule);
//   - some table's atoms all carry every group variable, so that a
//     change to it names the groups it touches.
func planGroups(cat *catalog, cr *compiledRule, seq int) (*groupPlan, string) {
	if cr.head.locCol >= 0 {
		return nil, "remote head"
	}
	if cr.isDeferred {
		return nil, "deferred head"
	}
	for _, op := range cr.body {
		if (op.kind == opScan || op.kind == opNotin) && op.tbl.decl.Event {
			return nil, "event input " + op.table
		}
	}
	if cr.head.tbl.decl.Event {
		return nil, "event head"
	}
	envCall := ""
	ruleCalls(cr, func(b *Builtin) bool {
		if b.Impure || b.ReadsEnv {
			envCall = b.Name
		}
		return envCall == ""
	})
	if envCall != "" {
		return nil, "calls " + envCall + "()"
	}
	var vars []string
	for _, ce := range cr.head.exprs {
		switch e := ce.(type) {
		case nil, cconst:
		case cslot:
			if name := cr.slotNames[e.idx]; !slices.Contains(vars, name) {
				vars = append(vars, name)
			}
		default:
			return nil, "computed group column"
		}
	}
	if len(vars) == 0 {
		return nil, "constant group"
	}
	rc := &ruleCompiler{cat: cat, rule: cr.src, prog: cr.program, slots: map[string]int{}, reordered: true}
	for _, v := range vars {
		rc.newSlot(v)
	}
	seeded, err := rc.compileRule(seq)
	if err != nil {
		return nil, "seeded form does not compile: " + err.Error()
	}
	seeded.name, seeded.stats = cr.name, cr.stats
	plan := &groupPlan{vars: vars, seeded: seeded}
	for _, op := range seeded.body {
		if op.kind == opScan || op.kind == opNotin {
			plan.atoms = append(plan.atoms,
				groupAtomOf(op.tbl, len(vars), op.boundCols[:op.plainBound], op.boundExprs[:op.plainBound]))
		}
	}
	if len(plan.carrying()) == 0 {
		return nil, "every input has an atom without the group"
	}
	headCols := make([]int, len(seeded.head.exprs))
	for i := range headCols {
		headCols[i] = i
	}
	plan.head = groupAtomOf(cr.head.tbl, len(vars), headCols, seeded.head.exprs)
	return plan, ""
}

// carrying lists, in body order, the tables all of whose atoms carry
// the group: a step that changes only these is evaluated per group.
func (p *groupPlan) carrying() []string {
	var out []string
	for i, at := range p.atoms {
		ok := true
		for j, other := range p.atoms {
			// An earlier atom of the same table has decided it already.
			if other.tbl == at.tbl && (other.cols == nil || j < i) {
				ok = false
			}
		}
		if ok {
			out = append(out, at.tbl.Name())
		}
	}
	return out
}

// planComputedKeys gives scans a probe where the rule only spells a
// filter. When a scan of T is followed, before the next atom, by
// equality tests `bound == f(columns this scan binds)` — an opTest, or
// an `==` condition — with f a function of the row alone, T is probed
// through an index keyed by f(row) (Table.computedCol) with the bound
// side as probe value: f joins the op's bound columns as a virtual
// column. The tests stay in the body, so the index only pre-filters
// candidates: a fingerprint collision is filtered by the test, and a
// row whose f errors is a candidate of every probe (index.unkeyed) and
// raises, or is filtered first, exactly as under a full scan.
//
// A pre-filter must not lose a row the test would pass. An opTest
// compares encodings, as the index does. `==` coerces (1 == 1.0), so
// it only joins the key when one side is statically a string, addr or
// bool, for which == and encoding equality agree. A bare column on the
// row side is left alone: a rule that wants a column probed says so by
// putting the value in the atom. Event tables are left alone too: they
// hold a step's few tuples, and keying those every step costs more than
// scanning them.
func planComputedKeys(cr *compiledRule) {
	// Body position binding each slot; -1 for the slots a seeded form
	// (groupPlan) holds bound before the body starts.
	boundAt := make([]int, cr.nslots)
	for i := range boundAt {
		boundAt[i] = -1
	}
	for i, op := range cr.body {
		switch op.kind {
		case opScan:
			for _, s := range op.bindSlots {
				boundAt[s] = i
			}
		case opAssign:
			boundAt[op.assignSlot] = i
		}
	}
	for i, op := range cr.body {
		t := op.tbl
		if op.kind != opScan || t.decl.Event {
			continue
		}
		rowCol := func(slot int) (int, bool) {
			for j, s := range op.bindSlots {
				if s == slot {
					return op.bindCols[j], true
				}
			}
			return 0, false
		}
		earlier := func(slot int) (int, bool) { return slot, boundAt[slot] < i }
		// split reports whether `bound == row` is a usable key: row a
		// computed function of this scan's columns, bound known before
		// the scan starts.
		split := func(bound, row cexpr) (cexpr, bool) {
			if _, bare := row.(cslot); bare || !exprRowOnly(row) || !exprPure(bound) {
				return nil, false
			}
			if _, _, ok := mapSlots(bound, earlier); !ok {
				return nil, false
			}
			fn, n, ok := mapSlots(row, rowCol)
			return fn, ok && n > 0
		}
		for _, next := range cr.body[i+1:] {
			if next.kind == opScan || next.kind == opNotin {
				break
			}
			var bound, fn cexpr
			ok := false
			switch next.kind {
			case opTest:
				bound = cslot{idx: next.assignSlot}
				fn, ok = split(bound, next.assignExpr)
			case opCond:
				eq, isEq := next.cond.(cbin)
				if !isEq || eq.op != OpEQ || !(encodingEq(eq.l) || encodingEq(eq.r)) {
					continue
				}
				bound = eq.l
				if fn, ok = split(eq.l, eq.r); !ok {
					bound = eq.r
					fn, ok = split(eq.r, eq.l)
				}
			}
			if !ok {
				continue
			}
			op.boundCols = append(op.boundCols, t.computedCol(fn))
			op.boundExprs = append(op.boundExprs, bound)
		}
		if len(op.boundCols) > op.plainBound {
			op.prepareProbe()
		}
	}
}

// encodingEq reports whether == against ce's value is encoding
// equality: ce is known, whatever its bindings, to produce a kind that
// only coerces to itself (string and addr share an encoding).
func encodingEq(ce cexpr) bool {
	k := KindNil
	switch e := ce.(type) {
	case cconst:
		k = e.v.Kind()
	case ccall:
		k = e.b.Ret
	}
	return k == KindString || k == KindAddr || k == KindBool
}

// --- catalog & stratification ---

// catalog holds all installed declarations and compiled rules.
type catalog struct {
	decls map[string]*TableDecl
	// tables is the runtime's storage by name (the map is shared), so an
	// atom resolves its table once, when it compiles.
	tables    map[string]*Table
	rules     []*compiledRule
	periodics []*PeriodicDecl
	watches   map[string]string // table -> modes ("" = both)
	programs  []string
	// strata[i] is the evaluation plan of stratum i (see trigger.go).
	strata []*stratum
	// fire lists, when some rule reads sys::fire, the rows the runtime
	// refreshes it with each step: one per rule name, in rule order.
	fire []fireRow
}

func newCatalog(tables map[string]*Table) *catalog {
	return &catalog{
		decls:   make(map[string]*TableDecl),
		tables:  tables,
		watches: make(map[string]string),
	}
}

func (c *catalog) decl(name string) (*TableDecl, bool) {
	d, ok := c.decls[name]
	return d, ok
}

// stratify assigns a stratum to every table and rule. Positive
// dependencies impose stratum(head) >= stratum(body); negation and
// aggregation impose strictly greater. A strict edge inside a cycle is
// an error (the program is not stratifiable).
func (c *catalog) stratify() error {
	// Collect edges: body -> head with weight 0 (positive) or 1 (strict).
	type edge struct {
		from, to string
		strict   bool
	}
	var edges []edge
	tables := map[string]bool{}
	for n := range c.decls {
		tables[n] = true
	}
	for _, cr := range c.rules {
		if cr.isDeferred || cr.isDelete {
			// Deferred heads apply at the next timestep and deletions at
			// the end of the current one, so neither imposes intra-step
			// ordering (temporal stratification, as in Dedalus): a
			// counter may be read and `next`-updated freely, and a rule
			// may delete from a table its own body negates.
			continue
		}
		head := cr.head.table
		for _, op := range cr.body {
			switch op.kind {
			case opScan:
				strict := cr.isAgg // aggregation reads its inputs' fixpoint
				edges = append(edges, edge{from: op.table, to: head, strict: strict})
			case opNotin:
				edges = append(edges, edge{from: op.table, to: head, strict: true})
			}
		}
	}

	// Longest-path strata via Bellman-Ford style relaxation; a positive
	// cycle through a strict edge never converges, so bound iterations.
	stratum := map[string]int{}
	for t := range tables {
		stratum[t] = 0
	}
	n := len(tables)
	for iter := 0; iter <= n+1; iter++ {
		changed := false
		for _, e := range edges {
			need := stratum[e.from]
			if e.strict {
				need++
			}
			if stratum[e.to] < need {
				stratum[e.to] = need
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n+1 {
			return &InstallError{Msg: "program is not stratifiable: negation or aggregation appears in a recursive cycle"}
		}
	}

	max := 0
	for _, s := range stratum {
		if s > max {
			max = s
		}
	}
	strata := make([][]*compiledRule, max+1)
	for _, cr := range c.rules {
		if cr.isDeferred || cr.isDelete {
			// Deferred and delete rules evaluate where their inputs are
			// complete.
			s := 0
			for _, op := range cr.body {
				if op.kind == opScan || op.kind == opNotin {
					if bs := stratum[op.table]; bs > s {
						s = bs
					}
				}
			}
			cr.stratum = s
		} else {
			cr.stratum = stratum[cr.head.table]
		}
		strata[cr.stratum] = append(strata[cr.stratum], cr)
	}
	c.strata = c.strata[:0]
	for _, rules := range strata {
		// Aggregate rules first within each stratum (they run once at entry).
		sort.SliceStable(rules, func(i, j int) bool {
			return rules[i].isAgg && !rules[j].isAgg
		})
		c.strata = append(c.strata, planStratum(rules, len(c.tables)))
	}
	c.planFireRows()
	return nil
}
