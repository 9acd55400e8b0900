package overlog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// Envelope is a derived tuple addressed to another node. The driver
// (simulator or network transport) is responsible for delivery; the
// destination runtime receives it as an external tuple on a later step.
type Envelope struct {
	To    string
	Tuple Tuple
}

// WatchEvent is a trace record emitted for watched tables.
type WatchEvent struct {
	Node   string
	Time   int64
	Insert bool   // false = deletion
	Sent   bool   // head routed to a remote node (never stored here)
	Rule   string // deriving rule name; "" for external/fact inserts
	Tuple  Tuple
}

func (e WatchEvent) String() string {
	op := "+"
	if e.Sent {
		op = ">"
	} else if !e.Insert {
		op = "-"
	}
	via := e.Rule
	if via == "" {
		via = "external"
	}
	return fmt.Sprintf("[%s t=%d] %s%s via %s", e.Node, e.Time, op, e.Tuple, via)
}

// Watcher receives trace events for watched tables.
type Watcher func(WatchEvent)

// periodicState tracks one periodic event source.
type periodicState struct {
	decl     *PeriodicDecl
	nextFire int64
	ord      int64
}

// tableState is what the evaluator keeps about one table from step to
// step.
type tableState struct {
	tbl *Table
	// delta holds the tuples newly inserted this step. It is NOT reset
	// when a step starts: tuples inserted since the previous step (facts
	// and state loaded by Install, sys::fire refreshes) seed the next
	// step's semi-naive frontier; it is emptied at the end of the step,
	// keeping its backing so that a table's delta does not re-climb the
	// doubling ladder every step. That is safe because nothing retains a
	// previous step's delta headers past the step — frontier windows are
	// local to runStratum, and the tuples' value storage is table-owned,
	// not delta-owned. consumed is how much of it the running stratum
	// has used as frontier.
	delta    []Tuple
	consumed int
	// dirty marks a table that lost rows (deletion, or displacement under
	// the primary key), which is the half of "an input changed" that
	// delta does not show; retracted keeps the lost rows themselves when
	// a per-group aggregate reads or heads the table (keepLost), so such
	// a rule can tell which groups a loss touched. Both are delta's
	// counterpart with the lifetime shifted: they are emptied after a
	// step's last stratum, not at its end, so a loss is seen by exactly
	// one stratum pass — this step's when it happens before the strata
	// (external and in-stratum displacements), the next step's when it
	// happens after them (end-of-step deletions, sys::fire refreshes,
	// Install and restore between steps). retracted keeps its backing
	// across steps, as delta does.
	dirty     bool
	keepLost  bool
	retracted []Tuple
}

// Runtime executes Overlog programs for a single logical node.
//
// A Runtime is passive and single-threaded: the driver calls Step with
// a monotonically nondecreasing clock and the external tuples that
// arrived since the previous step; Step runs one full timestep and
// returns the tuples destined for other nodes.
type Runtime struct {
	addr string
	cat  *catalog

	tables map[string]*Table
	period []*periodicState
	// progs retains every installed program (AST + pragmas) so analysis
	// tooling can inspect the live catalog. Each rendered sys:: catalog
	// relation holds the first catalogProgs[name] of them
	// (renderCatalog).
	progs        []*Program
	catalogProgs map[string]int

	rng       *rand.Rand
	idCounter int64
	now       int64
	stepCount int64

	// Per-step evaluation state, per table: ts is indexed by Table.id
	// (see tableState), and what a step touched is listed, so that the
	// step's bookkeeping costs what it changed, not what is declared.
	// deltaIDs and deltaBits hold the tables with a non-empty delta,
	// dirtyIDs and dirtyBits those that lost rows.
	ts        []tableState
	deltaIDs  []int
	dirtyIDs  []int
	deltaBits bitset
	dirtyBits bitset
	// stored counts the tuples held across all tables (Table.stored).
	stored int64

	outbox  []Envelope
	pendDel []Tuple
	// deferredIns holds `next`-rule heads awaiting the following step;
	// extBuf is the buffer a step joins them with its external input in,
	// and cursors runStratum's scratch: all three keep their backing.
	deferredIns []Tuple
	extBuf      []Tuple
	cursors     []cursor

	watchers []Watcher
	watchAll bool // trace every table regardless of watch declarations

	maxIterations int
	naiveEval     bool

	strataRun int64 // strata entered because something they read changed (the visit guards read it)
	scanRows  int64 // candidate rows handed to scan ops (the visit guards read it)
	derivedCt int64 // total tuples derived (including duplicates suppressed)
	insertCt  int64 // tuples actually inserted (post-dedup)
	retractCt int64 // stored tuples removed (deletions + key replacements)

	// Provenance capture state (see provenance.go). provOn/provTables
	// are compiled from the sys::prov relation; provActive is armed per
	// rule evaluation when the head's table is captured; provStack holds
	// the body-tuple fingerprints along the current execOps descent.
	provOn     bool
	provTable  *Table // sys::prov
	provGen    uint64
	provAll    int
	provTables map[string]int
	provRings  map[string]*provRing
	provActive bool
	provStack  []DerivRef
	provAggN   int64

	// Profiling state (see profile.go).
	profOn    bool
	stratIter []int32
	stratProf []StratumProfile

	// pendDelBy attributes each pending deletion to the rule-stats block
	// of the rule that requested it (nil for unattributed), index-aligned
	// with pendDel.
	pendDelBy []*ruleStats

	stepHooks []func(StepStats)
	wakeHook  func()
}

// StepStats summarizes one completed timestep for instrumentation.
type StepStats struct {
	NowMS      int64 // the step's clock value
	DurationNS int64 // wall time spent inside Step
	External   int   // external tuples consumed (incl. deferred+periodic)
	Derived    int64 // rule head derivations this step (pre-dedup)
	Inserted   int64 // tuples inserted this step (post-dedup)
	Retracted  int64 // stored tuples removed this step (deletions + key replacements)
	Envelopes  int   // tuples emitted toward other nodes
	Stored     int64 // total tuples held across all tables at step end
	// StratumIters holds this step's fixpoint iteration count per
	// evaluated stratum, in stratum order. Nil unless profiling is on;
	// the slice is the runtime's scratch buffer — hooks must not retain
	// it past their return.
	StratumIters []int32
	// Consumed is the full external input this step ingested (caller
	// tuples plus replayed deferred heads and fired periodics), and
	// Outbox the envelopes about to be returned from Step. Both alias
	// runtime scratch — hooks must not retain or mutate them past
	// their return. They exist so tracing hooks can stamp rule-fire
	// and remote-send spans per trace ID without the runtime knowing
	// about spans.
	Consumed []Tuple
	Outbox   []Envelope
}

// SetStepHook installs a callback invoked at the end of every
// successful Step, while the caller still holds the runtime — hook
// implementations must not re-enter the runtime. The hook is the
// telemetry layer's attachment point; nil clears every installed
// hook (including ones added by AddStepHook), non-nil replaces them.
func (r *Runtime) SetStepHook(fn func(StepStats)) {
	if fn == nil {
		r.stepHooks = nil
		return
	}
	r.stepHooks = []func(StepStats){fn}
}

// AddStepHook appends a step hook without disturbing ones already
// installed, so metrics attachment and span tracing compose. Hooks
// run in installation order under the same contract as SetStepHook.
func (r *Runtime) AddStepHook(fn func(StepStats)) {
	if fn != nil {
		r.stepHooks = append(r.stepHooks, fn)
	}
}

// SetWakeHook installs a callback invoked whenever the runtime's
// NextWake may have changed outside a Step — today that is Install,
// which can add periodics and seed facts at any point in a node's
// life. Schedulers that cache NextWake (the cluster wake index)
// listen here instead of polling every node every instant. The hook
// may read NextWake but must not re-enter the runtime; nil clears it.
func (r *Runtime) SetWakeHook(fn func()) { r.wakeHook = fn }

// Option configures a Runtime.
type Option func(*Runtime)

// WithSeed fixes the deterministic RNG seed (default derives from the
// node address so distinct nodes make distinct placement choices).
func WithSeed(seed int64) Option {
	return func(r *Runtime) { r.rng = rand.New(rand.NewSource(seed)) }
}

// WithWatchAll traces every table (used by the monitoring harness).
func WithWatchAll() Option {
	return func(r *Runtime) { r.watchAll = true }
}

// WithMaxIterations overrides the runaway-fixpoint guard.
func WithMaxIterations(n int) Option {
	return func(r *Runtime) { r.maxIterations = n }
}

// WithNaiveEval disables semi-naive evaluation: every fixpoint
// iteration re-derives from full table contents. Provided only for the
// ablation benchmarks (it is dramatically slower on recursive rules)
// and for differential testing of the semi-naive implementation.
func WithNaiveEval() Option {
	return func(r *Runtime) { r.naiveEval = true }
}

// NewRuntime creates an empty runtime for a node with the given address.
func NewRuntime(addr string, opts ...Option) *Runtime {
	r := &Runtime{
		addr:          addr,
		tables:        make(map[string]*Table),
		maxIterations: 1 << 20,
	}
	r.cat = newCatalog(r.tables)
	r.rng = rand.New(rand.NewSource(int64(hashValue(Str(addr)))))
	for _, o := range opts {
		o(r)
	}
	r.declareSysTables()
	return r
}

// LocalAddr implements EvalEnv.
func (r *Runtime) LocalAddr() string { return r.addr }

// NowMS implements EvalEnv.
func (r *Runtime) NowMS() int64 { return r.now }

// Rand implements EvalEnv.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// NextID implements EvalEnv.
func (r *Runtime) NextID() int64 {
	r.idCounter++
	return r.idCounter
}

// StepCount returns the number of completed timesteps.
func (r *Runtime) StepCount() int64 { return r.stepCount }

// DerivationCount returns the total number of rule head derivations
// attempted (a rough work metric used by the monitoring experiment).
func (r *Runtime) DerivationCount() int64 { return r.derivedCt }

// RegisterWatcher adds a trace sink.
func (r *Runtime) RegisterWatcher(w Watcher) { r.watchers = append(r.watchers, w) }

// AddWatch subscribes a table to trace events programmatically, as if
// the program contained a watch declaration. Modes: "i" inserts, "d"
// deletes, "s" remote sends, "" inserts and deletes.
func (r *Runtime) AddWatch(table, modes string) error {
	if _, ok := r.cat.decls[table]; !ok {
		return fmt.Errorf("overlog: AddWatch: undeclared table %q", table)
	}
	if prev, ok := r.cat.watches[table]; ok && prev != modes {
		modes = ""
	}
	r.cat.watches[table] = modes
	return nil
}

// RuleStats returns a copy of per-rule firing counts, merged by rule
// name (distinct rules sharing a label sum together, as they did when
// this was a map keyed by name).
func (r *Runtime) RuleStats() map[string]int64 {
	out := make(map[string]int64, len(r.cat.rules))
	for _, cr := range r.cat.rules {
		out[cr.name] += cr.stats.fires
	}
	return out
}

// Table returns the storage for a declared table, or nil. Reading a
// catalog relation renders the installed programs into it first.
func (r *Runtime) Table(name string) *Table {
	if rendered(name) && r.catalogProgs[name] != len(r.progs) {
		r.renderCatalog(name)
	}
	return r.tables[name]
}

// TableNames lists declared tables in sorted order.
func (r *Runtime) TableNames() []string {
	out := make([]string, 0, len(r.tables))
	for n := range r.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// declareSysTables declares the runtime's own sys:: relations.
func (r *Runtime) declareSysTables() {
	sys := []*TableDecl{
		// sys::fire: per rule name, fires and evals (maintainFireStats).
		{Name: "sys::fire", Cols: []ColDecl{
			{Name: "Rule", Type: KindString},
			{Name: "Count", Type: KindInt},
			{Name: "Evals", Type: KindInt},
		}, KeyCols: []int{0}},
		// sys::lint holds static-analysis findings over the installed
		// programs (populated by analysis.SelfLint); empty keys = set
		// semantics, so repeated lint runs are idempotent.
		{Name: "sys::lint", Cols: []ColDecl{
			{Name: "Code", Type: KindString},
			{Name: "Severity", Type: KindString},
			{Name: "Program", Type: KindString},
			{Name: "Rule", Type: KindString},
			{Name: "Subject", Type: KindString},
			{Name: "Line", Type: KindInt},
			{Name: "Msg", Type: KindString},
		}},
		// sys::prov configures derivation-lineage capture (see
		// provenance.go): a row (Table, Cap) enables a Cap-entry
		// derivation ring for Table; Table "*" captures every non-sys
		// table. Being a relation, capture can be toggled by rules —
		// including rules on other nodes via location specifiers.
		{Name: "sys::prov", Cols: []ColDecl{
			{Name: "Table", Type: KindString},
			{Name: "Cap", Type: KindInt},
		}, KeyCols: []int{0}},
		// sys::metric mirrors selected registry series into the rule
		// space: a periodic sweep (telemetry.MetricSweep) replaces the
		// latest window per (Node, Name), so windowed SLO rules —
		// p99 bounds, error budgets — are written in Overlog against
		// ordinary tuples instead of Go-side counters. Window is the
		// window-start clock value in ms; Value is rounded to int
		// (milliseconds or counts) so guard comparisons stay
		// uniformly int-typed.
		{Name: "sys::metric", Cols: []ColDecl{
			{Name: "Node", Type: KindString},
			{Name: "Name", Type: KindString},
			{Name: "Window", Type: KindInt},
			{Name: "Value", Type: KindInt},
		}, KeyCols: []int{0, 1}},
		// sys::invariant holds runtime invariant violations observed by
		// monitor rules (populated by the chaos harness from each node's
		// inv_violation table); like sys::lint, no keys = set semantics.
		{Name: "sys::invariant", Cols: []ColDecl{
			{Name: "Inv", Type: KindString},
			{Name: "Node", Type: KindString},
			{Name: "Time", Type: KindInt},
			{Name: "Detail", Type: KindString},
		}},
	}
	for _, d := range sys {
		r.declare(d)
	}
	// The catalog relations (relations.go), filled by renderCatalog.
	for _, d := range Schema() {
		sd := *d
		sd.Name = "sys::" + d.Name
		r.declare(&sd)
	}
	r.provTable = r.tables["sys::prov"]
}

// declare creates the storage of a newly declared table and gives it
// the next table id.
func (r *Runtime) declare(d *TableDecl) {
	t := NewTable(d)
	t.id, t.stored = len(r.ts), &r.stored
	r.cat.decls[d.Name] = d
	r.tables[d.Name] = t
	r.ts = append(r.ts, tableState{tbl: t})
	if words := (len(r.ts) + 63) / 64; words > len(r.deltaBits) {
		r.deltaBits = append(r.deltaBits, 0)
		r.dirtyBits = append(r.dirtyBits, 0)
	}
}

// Install adds a parsed program to the runtime: declarations, rules,
// watches, periodics, and facts. Multiple programs may be installed;
// all rules are recompiled and restratified together.
func (r *Runtime) Install(prog *Program) error {
	// Declarations first.
	for _, d := range prog.Tables {
		if msg := d.checkMax(); msg != "" {
			return &InstallError{Program: prog.Name, Line: d.Line, Msg: msg}
		}
		if existing, ok := r.cat.decls[d.Name]; ok {
			if existing.String() != d.String() {
				return &InstallError{Program: prog.Name, Line: d.Line,
					Msg: fmt.Sprintf("table %s redeclared with a different shape", d.Name)}
			}
			continue
		}
		r.declare(d)
	}
	for _, pd := range prog.Periodics {
		if d, ok := r.cat.decls[pd.Table]; ok {
			if !d.Event {
				return &InstallError{Program: prog.Name, Line: pd.Line,
					Msg: fmt.Sprintf("periodic %s must name an event table", pd.Table)}
			}
		} else {
			r.declare(periodicDecl(pd))
		}
		r.period = append(r.period, &periodicState{decl: pd, nextFire: 0})
	}
	for _, w := range prog.Watches {
		if _, ok := r.cat.decls[w.Table]; !ok {
			return &InstallError{Program: prog.Name, Line: w.Line,
				Msg: fmt.Sprintf("watch names undeclared table %s", w.Table)}
		}
		modes := w.Modes
		if prev, ok := r.cat.watches[w.Table]; ok && prev != modes {
			modes = "" // union of modes = both
		}
		r.cat.watches[w.Table] = modes
	}

	// Compile this program's rules and append.
	base := len(r.cat.rules)
	for i, rule := range prog.Rules {
		rc := &ruleCompiler{cat: r.cat, rule: rule, prog: progName(prog), slots: map[string]int{}}
		cr, err := rc.compileRule(base + i)
		if err != nil {
			return err
		}
		if err := buildDeltaVariants(r.cat, cr, base+i); err != nil {
			return err
		}
		cr.finalizeDelta()
		if cr.isAgg {
			cr.agg = newAggCollector(cr, r)
			if cr.group, cr.wholeRule = planGroups(r.cat, cr, base+i); cr.group != nil {
				r.ts[cr.head.tbl.id].keepLost = true
				for _, at := range cr.group.atoms {
					r.ts[at.tbl.id].keepLost = true
				}
			}
		}
		for _, form := range cr.forms() {
			planComputedKeys(form)
			form.emit = func(env []Value) error { return r.emitHead(form, env) }
		}
		r.cat.rules = append(r.cat.rules, cr)
	}
	r.cat.programs = append(r.cat.programs, progName(prog))
	r.progs = append(r.progs, prog)
	if err := r.cat.stratify(); err != nil {
		return err
	}

	// Facts: ground tuples loaded immediately (and seeded as deltas so
	// the first Step joins against them semi-naively).
	for _, f := range prog.Facts {
		tp, err := r.groundFact(f)
		if err != nil {
			return err
		}
		if _, err := r.insertLocal(tp, ""); err != nil {
			return err
		}
	}
	if len(r.cat.render) > 0 {
		r.renderCatalog(r.cat.render...)
	}
	if r.wakeHook != nil {
		r.wakeHook()
	}
	return nil
}

// InstallSource parses and installs Overlog source text, with params
// overridden by name; the rest keep their declared defaults.
func (r *Runtime) InstallSource(src string, params ...Param) error {
	prog, err := parse(src, params)
	if err != nil {
		return err
	}
	return r.Install(prog)
}

func progName(p *Program) string {
	if p.Name != "" {
		return p.Name
	}
	return "anon"
}

func (r *Runtime) groundFact(f *Fact) (Tuple, error) {
	rc := &ruleCompiler{cat: r.cat, prog: "fact", slots: map[string]int{}, rule: &Rule{Head: f.Atom}}
	vals := make([]Value, len(f.Atom.Terms))
	for i, term := range f.Atom.Terms {
		if term.Agg != AggNone {
			return Tuple{}, &InstallError{Line: f.Line, Msg: "facts may not aggregate"}
		}
		ce, err := rc.compileExpr(term.Expr, f.Line)
		if err != nil {
			return Tuple{}, err
		}
		v, err := ce.eval(nil, r)
		if err != nil {
			return Tuple{}, &InstallError{Line: f.Line, Msg: "fact argument is not ground: " + err.Error()}
		}
		vals[i] = v
	}
	if _, ok := r.cat.decl(f.Atom.Table); !ok {
		return Tuple{}, &InstallError{Line: f.Line, Msg: "fact for undeclared table " + f.Atom.Table}
	}
	return NewTuple(f.Atom.Table, vals...), nil
}

// renderCatalog brings the named sys:: catalog relations up to date
// with the installed programs; the others stay as they are until read.
// A program installed later only adds rows, or displaces one by key (an
// atom that becomes a table when a later program declares a builtin's
// name), so the rows already stored are inserted again as no-ops.
func (r *Runtime) renderCatalog(names ...string) {
	if r.catalogProgs == nil {
		r.catalogProgs = map[string]int{}
	}
	for _, name := range names {
		r.catalogProgs[name] = len(r.progs)
	}
	for _, tp := range NewModel(r.progs).Rows("sys::") {
		if slices.Contains(names, tp.Table) {
			_, _ = r.insertLocal(tp, "sys")
		}
	}
}

// Programs returns the installed programs in install order. The slice
// is fresh; the *Program values are shared and must not be mutated.
func (r *Runtime) Programs() []*Program {
	return append([]*Program(nil), r.progs...)
}

// Rules returns the names of installed rules in order.
func (r *Runtime) Rules() []string {
	out := make([]string, len(r.cat.rules))
	for i, cr := range r.cat.rules {
		out[i] = cr.name
	}
	return out
}

// NextWake returns the earliest time the runtime needs a step: the
// next periodic firing, or now+1 when deferred (`next`) tuples are
// pending. Returns -1 when no wake is needed.
func (r *Runtime) NextWake() int64 {
	next := int64(-1)
	if len(r.deferredIns) > 0 {
		next = r.now + 1
	}
	for _, p := range r.period {
		if next == -1 || p.nextFire < next {
			next = p.nextFire
		}
	}
	return next
}

// Step runs one timestep at clock value now with the given external
// tuples, returning envelopes destined to other nodes. The clock must
// not move backwards across calls.
func (r *Runtime) Step(now int64, external []Tuple) ([]Envelope, error) {
	if now < r.now {
		return nil, fmt.Errorf("overlog: %s: clock moved backwards (%d < %d)", r.addr, now, r.now)
	}
	var hookStart time.Time
	var derived0, inserted0, retracted0 int64
	if len(r.stepHooks) != 0 {
		hookStart = time.Now() //boomvet:allow(walltime) profiling only: hook wall duration never feeds tuples
		derived0, inserted0, retracted0 = r.derivedCt, r.insertCt, r.retractCt
	}
	if r.profOn {
		r.stratIter = r.stratIter[:0]
	}
	r.now = now
	r.outbox = nil
	r.pendDel = nil
	r.pendDelBy = nil

	// Deferred heads from the previous step arrive as external inserts,
	// ahead of the caller's. (The joined input lives in a buffer the
	// runtime owns and takes back when the step is over:
	// StepStats.Consumed aliases it, and hooks may not keep that.)
	joined := len(r.deferredIns) > 0
	if joined {
		external = append(append(r.extBuf[:0], r.deferredIns...), external...)
		r.deferredIns = recycle(r.deferredIns)
	}

	// Fire due periodics.
	for _, p := range r.period {
		for p.nextFire <= now {
			external = append(external, NewTuple(p.decl.Table, Int(p.ord), Int(now)))
			p.ord++
			if p.nextFire <= 0 {
				p.nextFire = now + p.decl.IntervalMS
			} else {
				p.nextFire += p.decl.IntervalMS
			}
		}
	}

	// External tuples seed the deltas.
	externalIn := len(external)
	for _, tp := range external {
		if _, err := r.insertLocal(tp, ""); err != nil {
			return nil, err
		}
	}

	// Sync the provenance capture set when sys::prov changed (local
	// API call, rule derivation, or a remote toggle that just arrived
	// as an external tuple). One integer compare on the steady path.
	if t := r.provTable; t.generation != r.provGen {
		r.syncProv(t)
	}

	// Stratified semi-naive fixpoint.
	for s := range r.cat.strata {
		if err := r.runStratum(s); err != nil {
			return nil, err
		}
	}
	// Every rule has now seen the rows lost since the previous step's
	// strata; what is lost from here on is the next step's to see.
	for _, id := range r.dirtyIDs {
		ts := &r.ts[id]
		ts.dirty = false
		clear(ts.retracted)
		ts.retracted = ts.retracted[:0]
		r.dirtyBits.unset(id)
	}
	r.dirtyIDs = r.dirtyIDs[:0]

	// Deferred deletions.
	for i, tp := range r.pendDel {
		removed, err := r.deleteLocal(tp)
		if err != nil {
			return nil, err
		}
		if removed && r.pendDelBy[i] != nil {
			r.pendDelBy[i].retracted++
		}
	}

	r.stepCount++
	// Event tables live one step, and only one with a delta holds a row.
	// The deltas themselves go with them — before sys::fire is refreshed
	// below, so that those rows seed the NEXT step's frontier (rules
	// reading sys::fire see updates one step later).
	for _, id := range r.deltaIDs {
		ts := &r.ts[id]
		if ts.tbl.decl.Event {
			ts.tbl.Clear()
		}
		ts.delta, ts.consumed = ts.delta[:0], 0
		r.deltaBits.unset(id)
	}
	r.deltaIDs = r.deltaIDs[:0]
	if err := r.maintainFireStats(); err != nil {
		return nil, err
	}
	out := r.outbox
	r.outbox = nil
	if len(r.stepHooks) != 0 {
		st := StepStats{
			NowMS:      now,
			DurationNS: time.Since(hookStart).Nanoseconds(), //boomvet:allow(walltime) profiling only: reported to hooks, never stored
			External:   externalIn,
			Derived:    r.derivedCt - derived0,
			Inserted:   r.insertCt - inserted0,
			Retracted:  r.retractCt - retracted0,
			Envelopes:  len(out),
			Stored:     r.stored,
			Consumed:   external,
			Outbox:     out,
		}
		if r.profOn {
			st.StratumIters = r.stratIter
		}
		for _, hook := range r.stepHooks {
			hook(st)
		}
	}
	if joined {
		r.extBuf = recycle(external)
	}
	return out, nil
}

// recycle empties a scratch list for reuse — unless one bulk step grew
// it past a few hundred tuples, which it must not pin for good.
func recycle(buf []Tuple) []Tuple {
	if cap(buf) > 256 {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// maintainFireStats refreshes sys::fire when any rule reads it
// (catalog.fire, decided at install), in rule order, not map order:
// insertion order is delta order, which rules reading sys::fire (a
// per-group aggregate's emission order included) pass on to everything
// downstream.
func (r *Runtime) maintainFireStats() error {
	for _, row := range r.cat.fire {
		var count, evals int64
		for _, st := range row.stats {
			count += st.fires
			evals += st.evals
		}
		if _, err := r.insertLocal(NewTuple("sys::fire", Str(row.name), Int(count), Int(evals)), "sys"); err != nil {
			return err
		}
	}
	return nil
}

// insertLocal stores a tuple, records it in the step deltas when new,
// and emits watch events. viaRule is "" for external inserts. tp.Vals
// may be a reusable scratch buffer: storage clones before retaining,
// and the emitted events carry the stored copy.
func (r *Runtime) insertLocal(tp Tuple, viaRule string) (bool, error) {
	tbl, ok := r.tables[tp.Table]
	if !ok {
		return false, r.undeclared(tp.Table)
	}
	return r.insertInto(tbl, tp, viaRule)
}

func (r *Runtime) undeclared(table string) error {
	return fmt.Errorf("overlog: %s: insert into undeclared table %q", r.addr, table)
}

// CheckTuple reports the error inserting tp would fail with: its table
// is undeclared, or its arity or a column's type does not match the
// declaration. A driver holding tuples from outside the program checks
// them with it, so that one bad tuple is dropped instead of failing the
// whole step.
func (r *Runtime) CheckTuple(tp Tuple) error {
	tbl, ok := r.tables[tp.Table]
	if !ok {
		return r.undeclared(tp.Table)
	}
	return tbl.checkTuple(tp)
}

// insertInto is insertLocal with the table already resolved (a rule's
// head is, when it compiles).
func (r *Runtime) insertInto(tbl *Table, tp Tuple, viaRule string) (bool, error) {
	inserted, displaced, norm, err := tbl.insertChecked(tp)
	if err != nil {
		return false, err
	}
	if !inserted {
		return false, nil
	}
	r.insertCt++
	ts := &r.ts[tbl.id]
	dl := ts.delta
	if len(dl) == 0 {
		r.deltaIDs = append(r.deltaIDs, tbl.id)
		r.deltaBits.set(tbl.id)
	}
	if len(dl) == cap(dl) {
		// Doubling growth with a generous floor: append's taper to ~1.25x
		// for large slices makes a fixpoint's delta list reallocate (and
		// GC-scan the garbage) often enough to show up in profiles.
		newCap := cap(dl) * 2
		if newCap < 256 {
			newCap = 256
		}
		grown := make([]Tuple, len(dl), newCap)
		copy(grown, dl)
		dl = grown
	}
	ts.delta = append(dl, norm)
	if displaced != nil {
		// A max-column row a larger one displaced leaves the delta, unless
		// a frontier (which aliases the delta) already holds it.
		for i := len(ts.delta) - 2; tbl.maxCol >= 0 && i >= ts.consumed; i-- {
			if &ts.delta[i].Vals[0] == &displaced.Vals[0] {
				ts.delta = slices.Delete(ts.delta, i, i+1)
				break
			}
		}
		r.noteRetraction(tbl, *displaced)
		if len(r.watchers) > 0 {
			r.emitWatch(WatchEvent{Node: r.addr, Time: r.now, Insert: false, Rule: viaRule, Tuple: *displaced})
		}
	}
	// Constructing the WatchEvent costs a 90-byte struct copy per
	// insert, so skip it entirely on unwatched runs.
	if len(r.watchers) > 0 {
		r.emitWatch(WatchEvent{Node: r.addr, Time: r.now, Insert: true, Rule: viaRule, Tuple: norm})
	}
	return true, nil
}

func (r *Runtime) deleteLocal(tp Tuple) (bool, error) {
	tbl, ok := r.tables[tp.Table]
	if !ok {
		return false, fmt.Errorf("overlog: %s: delete from undeclared table %q", r.addr, tp.Table)
	}
	old, removed, err := tbl.remove(tp)
	if err != nil {
		return false, err
	}
	if removed {
		r.noteRetraction(tbl, old)
		r.emitWatch(WatchEvent{Node: r.addr, Time: r.now, Insert: false, Rule: "delete", Tuple: tp})
	}
	return removed, nil
}

// noteRetraction records that a stored row left its table: old is the
// storage-owned row, which stays intact after removal (arena slots are
// never rewritten).
func (r *Runtime) noteRetraction(tbl *Table, old Tuple) {
	r.retractCt++
	ts := &r.ts[tbl.id]
	if !ts.dirty {
		ts.dirty = true
		r.dirtyIDs = append(r.dirtyIDs, tbl.id)
		r.dirtyBits.set(tbl.id)
	}
	if ts.keepLost {
		//boomvet:allow(ownership) old is the row storage owned, handed over by the removal
		ts.retracted = append(ts.retracted, old)
	}
}

func (r *Runtime) emitWatch(ev WatchEvent) {
	if len(r.watchers) == 0 {
		return
	}
	modes, watched := r.cat.watches[ev.Tuple.Table]
	if !watched && !r.watchAll {
		return
	}
	if watched && !r.watchAll {
		// "" keeps its historical meaning of inserts+deletes; sends must
		// be asked for explicitly.
		if modes == "" {
			if ev.Sent {
				return
			}
		} else {
			want := byte('i')
			if ev.Sent {
				want = 's'
			} else if !ev.Insert {
				want = 'd'
			}
			found := false
			for i := 0; i < len(modes); i++ {
				if modes[i] == want {
					found = true
				}
			}
			if !found {
				return
			}
		}
	}
	for _, w := range r.watchers {
		w(ev)
	}
}

// runStratum evaluates one stratum, if anything it reads changed:
// aggregate (and scan-free) rules once at entry, then a semi-naive loop
// over the rest, driven by the stratum's trigger index (trigger.go).
func (r *Runtime) runStratum(s int) error {
	st := r.cat.strata[s]
	if r.naiveEval {
		if len(st.rules) == 0 {
			return nil
		}
		return r.runStratumNaive(s, st.rules)
	}
	if !st.fresh && !st.reads.meets(r.deltaBits, r.dirtyBits) {
		return nil
	}
	r.strataRun++

	for _, cr := range st.full {
		// Evaluation is only needed when an input table changed (rows
		// inserted this step, or lost since the previous step's strata)
		// or the rule has never run.
		if cr.ranOnce && !r.ruleInputsChanged(cr) {
			continue
		}
		if !r.unreached(cr) {
			if err := r.evalRuleFull(cr); err != nil {
				return err
			}
		}
		cr.ranOnce = true
	}
	st.fresh = false

	// Each table's consumed says how much of its delta this stratum has
	// already used as frontier: nothing yet (a table without a delta is
	// at zero already).
	for _, id := range r.deltaIDs {
		r.ts[id].consumed = 0
	}
	for iter := 0; ; iter++ {
		if iter > r.maxIterations {
			return fmt.Errorf("overlog: %s: fixpoint did not converge after %d iterations in stratum %d", r.addr, iter, s)
		}
		// Snapshot the frontier window of every table that has one and
		// triggers a rule here.
		cursors := r.cursors[:0]
		for _, id := range r.deltaIDs {
			if id >= len(st.trig) {
				continue // declared by an Install that failed before it planned
			}
			tl, ts := st.trig[id], &r.ts[id]
			if tl == nil || len(ts.delta) == ts.consumed {
				continue
			}
			frontier := ts.delta[ts.consumed:]
			ts.consumed = len(ts.delta)
			tl.mark(frontier)
			cursors = append(cursors, cursor{tl: tl, frontier: frontier})
		}
		r.cursors = cursors[:0]
		if len(cursors) == 0 {
			if r.profOn {
				r.recordStratumIters(s, max(iter, 1))
			}
			return nil
		}
		// Evaluate the triggered (rule, position) pairs in rule order:
		// each list is in it, so take the lowest-ranked head until none
		// is left.
		for {
			var first *cursor
			var tg *trigger
			for i := range cursors {
				if h := cursors[i].head(); h != nil && (tg == nil || h.rank < tg.rank) {
					first, tg = &cursors[i], h
				}
			}
			if tg == nil {
				break
			}
			first.next++
			if err := r.evalRuleDelta(tg, first.frontier); err != nil {
				return err
			}
		}
	}
}

// ruleInputsChanged reports whether any body table of cr gained rows
// this step or lost rows since the previous step's strata. A rule
// maintained per group also answers for its own rows: one that
// something else removed is re-derived at the next pass, which costs
// the rule's own end-of-step retraction of a vanished group one empty
// look at that group. (A whole-rule aggregate re-derives such a row
// only when an input next changes, as it always has; waking it for its
// own retractions would re-read now() at steps where it is not read
// today.)
func (r *Runtime) ruleInputsChanged(cr *compiledRule) bool {
	return cr.inputs.meets(r.deltaBits, r.dirtyBits) || (cr.group != nil && r.ts[cr.head.tbl.id].dirty)
}

// runStratumNaive is the ablation path: iterate full re-derivation of
// every rule until no new tuples appear.
func (r *Runtime) runStratumNaive(s int, rules []*compiledRule) error {
	for iter := 0; ; iter++ {
		if iter > r.maxIterations {
			return fmt.Errorf("overlog: %s: naive fixpoint did not converge", r.addr)
		}
		before := r.insertCt
		for _, cr := range rules {
			if err := r.evalRuleFull(cr); err != nil {
				return err
			}
			cr.ranOnce = true
		}
		if r.insertCt == before {
			if r.profOn {
				r.recordStratumIters(s, iter+1)
			}
			return nil
		}
	}
}

// evalRuleFull evaluates a rule against full table contents: used for
// aggregate rules (recomputed once per step) and scan-free rules.
// Evaluation borrows the rule's prepared buffers (env, probe values,
// candidate lists); a Runtime is single-threaded and execOps never
// re-enters an operator, so reuse is safe.
func (r *Runtime) evalRuleFull(cr *compiledRule) error {
	cr.stats.evals++
	if r.profOn {
		start := time.Now()                                                   //boomvet:allow(walltime) profiling only: per-rule wall attribution
		defer func() { cr.stats.wallNS += time.Since(start).Nanoseconds() }() //boomvet:allow(walltime) profiling only: per-rule wall attribution
	}
	r.armProv(cr)
	if cr.isAgg {
		return r.evalAgg(cr)
	}
	return r.execOps(cr, 0, -1, nil, cr.envBuf, cr.emit)
}

// evalAgg evaluates an aggregate rule. Which groups: the ones this
// pass's changed rows touch when the rule has a plan for that and has
// materialized every group once; all of them otherwise (and always
// under naive evaluation, the oracle the differential tests hold this
// against).
func (r *Runtime) evalAgg(cr *compiledRule) error {
	a := cr.agg
	if cr.group != nil && cr.ranOnce && !r.naiveEval {
		touched, err := a.collectTouched()
		if err != nil {
			return err
		}
		if touched {
			return a.emit(false)
		}
	}
	a.begin(cr)
	if err := r.execOps(cr, 0, -1, nil, cr.envBuf, a.collectFn); err != nil {
		return err
	}
	return a.emit(true)
}

// armProv decides whether the rule evaluation about to run records
// derivations. Off is the common case and costs one branch.
func (r *Runtime) armProv(cr *compiledRule) {
	if !r.provOn {
		r.provActive = false
		return
	}
	r.provActive = r.provCap(cr.head.table) > 0
	r.provStack = r.provStack[:0]
}

// evalRuleDelta evaluates a rule with one scan position restricted to
// the frontier tuples, through the form the trigger names: the
// reordered variant (frontier scan first, so the remaining atoms are
// index-probed with bound values), or the rule in original order.
func (r *Runtime) evalRuleDelta(tg *trigger, frontier []Tuple) error {
	tg.cr.stats.evals++
	if r.profOn {
		start := time.Now()                                                      //boomvet:allow(walltime) profiling only: per-rule wall attribution
		defer func() { tg.cr.stats.wallNS += time.Since(start).Nanoseconds() }() //boomvet:allow(walltime) profiling only: per-rule wall attribution
	}
	r.armProv(tg.run)
	return r.execOps(tg.run, 0, tg.runPos, frontier, tg.run.envBuf, tg.run.emit)
}

// execOps recursively executes the body operations from opIdx on.
func (r *Runtime) execOps(cr *compiledRule, opIdx, deltaPos int, frontier []Tuple, env []Value, emit func([]Value) error) error {
	if opIdx == len(cr.body) {
		return emit(env)
	}
	op := cr.body[opIdx]
	switch op.kind {
	case opCond:
		v, err := op.cond.eval(env, r)
		if err != nil {
			return fmt.Errorf("rule %s: %w", cr.name, err)
		}
		if v.Kind() != KindBool {
			return fmt.Errorf("overlog: rule %s: condition %s evaluated to %s, want bool", cr.name, op.cond, v.Kind())
		}
		if !v.AsBool() {
			return nil
		}
		return r.execOps(cr, opIdx+1, deltaPos, frontier, env, emit)

	case opAssign:
		v, err := op.assignExpr.eval(env, r)
		if err != nil {
			return fmt.Errorf("rule %s: %w", cr.name, err)
		}
		env[op.assignSlot] = v
		return r.execOps(cr, opIdx+1, deltaPos, frontier, env, emit)

	case opTest:
		v, err := op.assignExpr.eval(env, r)
		if err != nil {
			return fmt.Errorf("rule %s: %w", cr.name, err)
		}
		if !env[op.assignSlot].keyEqual(v) {
			return nil
		}
		return r.execOps(cr, opIdx+1, deltaPos, frontier, env, emit)

	case opNotin:
		vals, err := op.probeVals(env, r, cr)
		if err != nil {
			return err
		}
		if t := op.tbl; !op.memoHit(t, vals) {
			op.candBuf = t.MatchInto(op.candBuf[:0], op.boundCols, vals)
			op.memoStore(t, vals)
		}
		for _, cand := range op.candBuf {
			if r.passesFilters(op, cand, env) {
				return nil // a matching tuple exists; notin fails
			}
		}
		return r.execOps(cr, opIdx+1, deltaPos, frontier, env, emit)

	case opScan:
		// A delta variant reaching its generator continues in the
		// alternative join order when the atom that keys it is the smaller
		// table (planAlternative). The two forms share this prefix, env
		// included. deltaPos 0 is delta evaluation of a frontier-first
		// form; a rule run whole (-1), or in textual order because no
		// variant compiles, keeps its order.
		if alt := cr.alt; alt != nil && opIdx == cr.altAt && deltaPos == 0 && alt.body[opIdx].tbl.Len() < op.tbl.Len() {
			if st := cr.stats; st.altSeen != st.evals {
				st.altSeen = st.evals
				st.altEvals++
			}
			return r.execOps(alt, opIdx, deltaPos, frontier, env, alt.emit)
		}
		vals, err := op.probeVals(env, r, cr)
		if err != nil {
			return err
		}
		var candidates []Tuple
		if opIdx == deltaPos {
			candidates = frontier
		} else {
			if t := op.tbl; !op.memoHit(t, vals) {
				op.candBuf = t.MatchInto(op.candBuf[:0], op.boundCols, vals)
				op.memoStore(t, vals)
			}
			candidates = op.candBuf
		}
		r.scanRows += int64(len(candidates))
		// Frontier tuples are unfiltered: check the stored bound columns
		// (computed ones have their test in the body) with the encoding
		// equality an index probe applies.
		stored := op.boundCols[:op.plainBound]
		for _, cand := range candidates {
			if opIdx == deltaPos {
				ok := true
				for i, col := range stored {
					if !cand.Vals[col].keyEqual(vals[i]) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			if !r.passesFilters(op, cand, env) {
				continue
			}
			for i, col := range op.bindCols {
				env[op.bindSlots[i]] = cand.Vals[col]
			}
			// Provenance capture: remember this body tuple's identity for
			// the duration of the descent, so emitHead sees the full set of
			// satisfying body tuples on the stack.
			if r.provActive {
				r.provStack = append(r.provStack, DerivRef{Table: op.table, FP: hashVals(cand.Vals)})
			}
			err := r.execOps(cr, opIdx+1, deltaPos, frontier, env, emit)
			if r.provActive {
				r.provStack = r.provStack[:len(r.provStack)-1]
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("overlog: rule %s: unknown op kind", cr.name)
}

// probeVals evaluates an atom's bound-column expressions into the op's
// reusable buffer. The common all-variables case copies slots directly,
// skipping the expression interface entirely.
func (op *bodyOp) probeVals(env []Value, r *Runtime, cr *compiledRule) ([]Value, error) {
	vals := op.valsBuf
	if op.boundSlots != nil {
		for i, s := range op.boundSlots {
			vals[i] = env[s]
		}
		return vals, nil
	}
	for i, ce := range op.boundExprs {
		v, err := ce.eval(env, r)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", cr.name, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// passesFilters checks repeated-variable columns within one atom.
// Filter slots referencing bind slots of the same atom must be checked
// after binding; since binds happen left-to-right within the atom and
// filters always reference earlier columns, checking against the
// candidate tuple's own columns is equivalent and simpler.
func (r *Runtime) passesFilters(op *bodyOp, cand Tuple, env []Value) bool {
	for i, col := range op.filterCols {
		slot := op.filterSlots[i]
		// The slot may have been bound by an earlier column of this very
		// candidate; bind order guarantees the earlier bindCols position
		// for that slot appears before col, so compare candidate columns.
		bound := false
		var want Value
		for j, bc := range op.bindCols {
			if op.bindSlots[j] == slot && bc < col {
				want = cand.Vals[bc]
				bound = true
				break
			}
		}
		if !bound {
			want = env[slot]
		}
		if !cand.Vals[col].Equal(want) {
			return false
		}
	}
	return true
}

// emitHead materializes the head for one satisfied body binding. The
// head evaluates into the rule's scratch buffer: duplicate derivations
// (the bulk of a fixpoint's head firings) are rejected by storage
// without ever allocating a tuple.
func (r *Runtime) emitHead(cr *compiledRule, env []Value) error {
	cr.stats.fires++
	r.derivedCt++
	vals := cr.headBuf
	for i, ce := range cr.head.exprs {
		v, err := ce.eval(env, r)
		if err != nil {
			return fmt.Errorf("rule %s head: %w", cr.name, err)
		}
		vals[i] = v
	}
	return r.routeHead(cr, Tuple{Table: cr.head.table, Vals: vals}, true)
}

// routeHead delivers a derived head tuple: deletion list, remote
// outbox, or local insertion. scratch marks tuples whose Vals slice is
// a reusable buffer; any path that retains the tuple clones it first
// (local insertion clones inside storage, on actual store only).
func (r *Runtime) routeHead(cr *compiledRule, tp Tuple, scratch bool) error {
	if cr.isDelete {
		if scratch {
			tp = cloneTuple(tp)
		}
		if r.provActive {
			r.recordDeriv(cr, tp, "", true)
		}
		r.pendDel = append(r.pendDel, tp)
		r.pendDelBy = append(r.pendDelBy, cr.stats)
		return nil
	}
	if cr.head.locCol >= 0 {
		loc := tp.Vals[cr.head.locCol]
		if loc.Kind() != KindAddr && loc.Kind() != KindString {
			return fmt.Errorf("overlog: rule %s: location specifier must be addr, got %s", cr.name, loc.Kind())
		}
		if loc.AsString() != r.addr {
			// Remote sends are never deferred further: network delivery
			// already lands on a later step of the destination.
			if scratch {
				tp = cloneTuple(tp)
			}
			// Record the send in the local ring with To set: when the
			// destination node is asked Why about the delivered tuple, the
			// cross-node chase finds this record here, on the origin.
			if r.provActive {
				r.recordDeriv(cr, tp, loc.AsString(), false)
			}
			r.emitWatch(WatchEvent{Node: r.addr, Time: r.now, Insert: true, Sent: true,
				Rule: cr.name, Tuple: tp})
			r.outbox = append(r.outbox, Envelope{To: loc.AsString(), Tuple: tp})
			return nil
		}
	}
	if r.provActive {
		r.recordDeriv(cr, tp, "", false)
	}
	if cr.isDeferred {
		// Covered now is covered next step (a max column only grows).
		if tbl := cr.head.tbl; tbl.maxCol >= 0 {
			if old, ok := tbl.LookupKey(tp); ok && tbl.covers(old, tp) {
				return nil
			}
		}
		if scratch {
			tp = cloneTuple(tp)
		}
		r.deferredIns = append(r.deferredIns, tp)
		return nil
	}
	_, err := r.insertInto(cr.head.tbl, tp, cr.name)
	return err
}

// --- aggregation ---

// accumulator is the running state for one aggregate position of one
// group. Float addends are kept and folded in sorted order when the
// head is built: a group's bindings arrive in scan order when every
// group is collected and in index-bucket order when one is, and a
// float sum must not depend on which.
type accumulator struct {
	count    int64
	sumI     int64     // the int addends
	sumF     float64   // the int addends again, as a float: exact below 2^53 in any order
	floats   []float64 // the float addends
	min, max Value
	minSet   bool
	maxSet   bool
	setSeen  map[string]bool
	setVals  []Value
}

func (acc *accumulator) reset() {
	clear(acc.setSeen)
	*acc = accumulator{floats: acc.floats[:0], setSeen: acc.setSeen, setVals: acc.setVals[:0]}
}

// sum folds the addends: ints first, then floats ascending.
func (acc *accumulator) sum() float64 {
	slices.Sort(acc.floats)
	s := acc.sumF
	for _, f := range acc.floats {
		s += f
	}
	return s
}

// set builds a setof aggregate's sorted list. A stored list is held by
// reference, so it needs its own backing — unless the group's previous
// row already holds the same list, which is then reused: an unchanged
// set allocates nothing.
func (acc *accumulator) set(prev Tuple, col int) Value {
	slices.SortFunc(acc.setVals, Value.Compare)
	if prev.Vals != nil && slices.EqualFunc(prev.Vals[col].lst(), acc.setVals, Value.keyEqual) {
		return prev.Vals[col]
	}
	return List(slices.Clone(acc.setVals)...)
}

// aggGroup is one group of an aggregate rule: the accumulators of the
// evaluation in progress and the row the last evaluation stored.
type aggGroup struct {
	key       string
	groupVals []Value
	accs      []accumulator
	epoch     uint64 // evaluation that last reset accs
	// prev is the storage-owned row this rule materialized for the
	// group (Vals nil: none), retracted when the group stops deriving.
	prev Tuple
}

// aggCollector evaluates one aggregate rule. It lives as long as the
// rule: groups persists across evaluations and holds every group with
// a materialized row, which makes it the rule's view of its own output
// (materialized-view maintenance; rules with remote or deferred heads
// keep nothing, those derivations leave the rule's control). One
// evaluation is begin, any number of collect calls, emit;
// whether it covers all groups or the touched ones is emit's argument.
// Buffers are reused, so an evaluation that changes no row allocates
// nothing.
type aggCollector struct {
	cr     *compiledRule
	rt     *Runtime
	head   *Table // the rule's head table
	groups map[string]*aggGroup
	epoch  uint64
	// run is the compiled form being collected (cr, or its seeded form:
	// slot numbers differ) and live the groups collected into so far,
	// in first-touch order, which is emission order.
	run  *compiledRule
	live []*aggGroup

	collectFn func([]Value) error // collect, bound once
	valBuf    []Value
	aggBuf    []Value
	keyBuf    []byte
	goneBuf   []string
}

func newAggCollector(cr *compiledRule, rt *Runtime) *aggCollector {
	a := &aggCollector{cr: cr, rt: rt, head: cr.head.tbl,
		groups: make(map[string]*aggGroup), aggBuf: make([]Value, len(cr.head.aggs))}
	a.collectFn = a.collect
	return a
}

// begin starts an evaluation of the given compiled form.
func (a *aggCollector) begin(run *compiledRule) {
	a.epoch++
	a.run = run
	clear(a.live) // groups the last evaluation retired are garbage now
	a.live = a.live[:0]
}

// groupFor returns the group with these group-column values, creating
// it if need be; fresh reports that this is the evaluation's first
// touch, which resets the accumulators and queues it for emit.
func (a *aggCollector) groupFor(groupVals []Value) (g *aggGroup, fresh bool) {
	a.keyBuf = a.keyBuf[:0]
	for _, v := range groupVals {
		a.keyBuf = v.encode(a.keyBuf)
	}
	g, ok := a.groups[string(a.keyBuf)] // no alloc: map-index conversion
	if !ok {
		g = &aggGroup{key: string(a.keyBuf), groupVals: append([]Value(nil), groupVals...),
			accs: make([]accumulator, len(a.cr.head.aggs))}
		a.groups[g.key] = g
	}
	if g.epoch == a.epoch {
		return g, false
	}
	g.epoch = a.epoch
	for i := range g.accs {
		g.accs[i].reset()
	}
	a.live = append(a.live, g)
	return g, true
}

// groupCols evaluates the form's group columns (the non-aggregate head
// columns, in head order) into valBuf.
func (a *aggCollector) groupCols(env []Value) error {
	a.valBuf = a.valBuf[:0]
	for _, ce := range a.run.head.exprs {
		if ce == nil {
			continue // aggregate position
		}
		v, err := ce.eval(env, a.rt)
		if err != nil {
			return fmt.Errorf("rule %s aggregate group column: %w", a.cr.name, err)
		}
		a.valBuf = append(a.valBuf, v)
	}
	return nil
}

// collect records one body binding into its group: evaluate the group
// columns and gather the aggregated slot values, then accumulate via
// collectRow.
func (a *aggCollector) collect(env []Value) error {
	if err := a.groupCols(env); err != nil {
		return err
	}
	for i, spec := range a.run.head.aggs {
		if spec.slot < 0 {
			a.aggBuf[i] = NilValue // count<_>
		} else {
			a.aggBuf[i] = env[spec.slot]
		}
	}
	a.collectRow(a.valBuf, a.aggBuf)
	return nil
}

// collectRow accumulates one pre-evaluated binding row: groupVals are
// the group columns in head order, aggVals one value per aggregate
// spec (ignored for count<_>). The order in which groups first appear
// is their emission order, and among values that compare equal min,
// max and setof keep the first, so rows arrive in binding order.
func (a *aggCollector) collectRow(groupVals, aggVals []Value) {
	g, _ := a.groupFor(groupVals)
	for i, spec := range a.cr.head.aggs {
		acc := &g.accs[i]
		acc.count++
		if spec.slot < 0 {
			continue // count<_>
		}
		v := aggVals[i]
		switch spec.kind {
		case AggSum, AggAvg:
			if v.Kind() == KindFloat {
				acc.floats = append(acc.floats, v.AsFloat())
			} else {
				acc.sumI += v.AsInt()
				acc.sumF += v.AsFloat()
			}
		case AggMin:
			if !acc.minSet || v.Compare(acc.min) < 0 {
				acc.min = v
				acc.minSet = true
			}
		case AggMax:
			if !acc.maxSet || v.Compare(acc.max) > 0 {
				acc.max = v
				acc.maxSet = true
			}
		case AggSet:
			if acc.setSeen == nil {
				acc.setSeen = make(map[string]bool)
			}
			a.keyBuf = v.encode(a.keyBuf[:0])
			if !acc.setSeen[string(a.keyBuf)] {
				acc.setSeen[string(a.keyBuf)] = true
				acc.setVals = append(acc.setVals, v)
			}
		}
	}
}

// collectTouched is the per-group evaluation: it projects every row
// that entered or left a body table since the rule last ran (and every
// row of its own that something removed) onto its group key, and
// re-collects each distinct group once through the seeded form — whole
// groups, so no accumulator is ever inverted. Rows are walked in body,
// delta and retraction order, never map order: that is emission order.
// It reports false, having done nothing, when a changed table has an
// atom that does not carry the group; the caller then collects all.
func (a *aggCollector) collectTouched() (bool, error) {
	r, plan := a.rt, a.cr.group
	for i := range plan.atoms {
		at := &plan.atoms[i]
		if ts := &r.ts[at.tbl.id]; at.cols == nil && (len(ts.delta) > 0 || ts.dirty) {
			return false, nil
		}
	}
	a.begin(plan.seeded)
	for i := range plan.atoms {
		at := &plan.atoms[i]
		ts := &r.ts[at.tbl.id]
		if err := a.collectGroupsOf(at, ts.delta); err != nil {
			return true, err
		}
		if err := a.collectGroupsOf(at, ts.retracted); err != nil {
			return true, err
		}
	}
	return true, a.collectGroupsOf(&plan.head, r.ts[plan.head.tbl.id].retracted)
}

// collectGroupsOf collects the group of each row, unless this
// evaluation has it already. Projecting is allowed to over-approximate
// (a row the atom's other terms reject still names a group): the group
// is recomputed from the tables, not from the row.
func (a *aggCollector) collectGroupsOf(at *groupAtom, rows []Tuple) error {
	env := a.run.envBuf
rows:
	for _, tp := range rows {
		for i, c := range at.constCols {
			if !tp.Vals[c].keyEqual(at.constVals[i]) {
				continue rows
			}
		}
		for i, c := range at.cols {
			env[i] = tp.Vals[c]
		}
		if err := a.groupCols(env); err != nil {
			return err
		}
		if _, fresh := a.groupFor(a.valBuf); !fresh {
			continue
		}
		a.cr.stats.groupEvals++
		if err := a.rt.execOps(a.run, 0, -1, nil, env, a.collectFn); err != nil {
			return err
		}
	}
	return nil
}

// emit routes one head per collected group that derives, retracts the
// row of each that no longer does, and — when the evaluation covered
// all groups — of every group it did not meet. Without the retraction
// an aggregate view over a shrinking input keeps its last row forever
// — e.g. a count of live replica holders stays at its old value after
// every holder dies, so `notin` tests against the view never fire.
// Deletions match the exact previous tuple, so a row legitimately
// re-derived by another rule (or replaced under the same key) is
// untouched. Heads are built in the rule's scratch buffer and always
// routed: storage rejects an unchanged row without allocating, and a
// row something else deleted comes back.
func (a *aggCollector) emit(all bool) error {
	cr, r := a.cr, a.rt
	maintain := !cr.isDeferred && cr.head.locCol < 0
	for _, g := range a.live {
		n := g.accs[0].count
		if n == 0 {
			a.retire(g)
			continue
		}
		vals := cr.headBuf
		gi := 0
		for i, ce := range cr.head.exprs {
			if ce != nil {
				vals[i] = g.groupVals[gi]
				gi++
			}
		}
		for i, spec := range cr.head.aggs {
			acc := &g.accs[i]
			switch spec.kind {
			case AggCount:
				vals[spec.col] = Int(acc.count)
			case AggSum:
				if len(acc.floats) > 0 {
					vals[spec.col] = Float(acc.sum())
				} else {
					vals[spec.col] = Int(acc.sumI)
				}
			case AggAvg:
				vals[spec.col] = Float(acc.sum() / float64(acc.count))
			case AggMin:
				vals[spec.col] = acc.min
			case AggMax:
				vals[spec.col] = acc.max
			case AggSet:
				vals[spec.col] = acc.set(g.prev, spec.col)
			}
		}
		cr.stats.fires++
		r.derivedCt++
		if r.provActive {
			// Aggregate lineage records the group's binding count, not the
			// (unboundedly many) contributing tuples.
			r.provAggN = n
		}
		tp := Tuple{Table: cr.head.table, Vals: vals}
		if err := r.routeHead(cr, tp, true); err != nil {
			return err
		}
		if maintain {
			g.prev, _ = a.head.LookupKey(tp)
		}
	}
	if !maintain {
		clear(a.groups)
		return nil
	}
	if all {
		// Retire vanished groups in sorted key order: pendDel order
		// decides watch/event/provenance emission order, which must
		// not inherit map iteration order.
		gone := a.goneBuf[:0]
		for key, g := range a.groups {
			if g.epoch != a.epoch {
				gone = append(gone, key)
			}
		}
		sort.Strings(gone)
		for _, key := range gone {
			a.retire(a.groups[key])
		}
		a.goneBuf = gone
	}
	return nil
}

// retire forgets a group that no longer derives, queueing the row it
// had materialized for end-of-step deletion.
func (a *aggCollector) retire(g *aggGroup) {
	if g.prev.Vals != nil {
		a.rt.pendDel = append(a.rt.pendDel, g.prev)
		a.rt.pendDelBy = append(a.rt.pendDelBy, a.cr.stats)
	}
	delete(a.groups, g.key)
}
