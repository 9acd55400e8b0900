package overlog

// Intra-node parallel fixpoints (DESIGN.md §16).
//
// A stratum's semi-naive loop stays serial at the granularity of
// rule-delta calls; what parallelizes is the evaluation *inside* one
// call. The shape mirrors sim.WithParallelStep one level down:
//
//   phase 1 — the frontier is hash-partitioned by join-key fingerprint
//   across a bounded worker pool. Workers evaluate the rule's probe
//   plan against frozen tables (indexes are pre-warmed serially, so
//   every table touched is strictly read-only) into thread-local
//   arenas, tagging each derivation with its frontier ordinal.
//
//   phase 2 — the merge replays the recorded derivations serially in
//   global frontier order (ord 0..n-1), routing each head exactly as
//   serial evaluation would. Insertion order, watch/journal events,
//   envelope order, and pending deletions are therefore bit-identical
//   to serial execution regardless of worker count or partitioning.
//
// Batching rides on the partition: each worker sorts its ordinals by
// join-key fingerprint, so consecutive bindings probe the next index
// with the same key and the per-operator probe memo turns all but the
// first into cache hits (one index probe per distinct key per batch).
//
// Eligibility is decided at compile time (compiledRule.initParallel):
// pure expressions only, frontier scan first, and no non-frontier read
// of the head table for rules that insert locally mid-step. Provenance
// capture forces serial evaluation. Any worker error or panic falls
// back to a full serial re-run of the call — workers mutate nothing,
// so the re-run reproduces serial behaviour (including the error)
// exactly.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// maxParWorkers bounds the pool; owner ordinals are stored as uint8.
const maxParWorkers = 64

// defaultParMinFrontier is the frontier size below which dispatching
// to the pool costs more than it saves; tests lower it to force the
// parallel path onto tiny inputs.
const defaultParMinFrontier = 32

// WithParallelFixpoint enables intra-node parallel fixpoint evaluation
// on a pool of n workers (n <= 1 keeps evaluation serial). Output is
// bit-identical to serial execution for any n. Composes with
// sim.WithParallelStep: that parallelizes across nodes, this within a
// node's stratum.
//
// The pool only dispatches when the process actually has more than one
// CPU (GOMAXPROCS > 1): on a single core, partitioned evaluation is
// pure scheduling overhead and the serial path always wins, so the
// configured pool stays idle and evaluation falls back to serial. Use
// WithParallelForce to override the gate for tests and pool
// micro-benchmarks.
func WithParallelFixpoint(n int) Option {
	return func(r *Runtime) { r.setParWorkers(n) }
}

// WithParallelForce disables the single-CPU fallback: a configured
// pool dispatches even when GOMAXPROCS == 1. Differential tests and
// pool overhead benchmarks use it to exercise the partitioned path on
// any machine; production configurations should not.
func WithParallelForce() Option {
	return func(r *Runtime) { r.parForce = true }
}

// SetParallelFixpoint reconfigures the worker pool at runtime: n <= 1
// stops any existing pool and returns to serial evaluation.
func (r *Runtime) SetParallelFixpoint(n int) { r.setParWorkers(n) }

// ParallelFixpoint returns the configured worker count (0 or 1 =
// serial).
func (r *Runtime) ParallelFixpoint() int { return r.parWorkers }

func (r *Runtime) setParWorkers(n int) {
	if n < 0 {
		n = 0
	}
	if n > maxParWorkers {
		n = maxParWorkers
	}
	if n == r.parWorkers {
		return
	}
	r.parWorkers = n
	if r.pool != nil {
		r.pool.stop()
		r.pool = nil
	}
}

// Close releases the runtime's worker pool (a no-op for serial
// runtimes). Drivers that discard runtimes with parallel fixpoints
// enabled (crash-restart in sim, server shutdown) call this to avoid
// leaking pool goroutines.
func (r *Runtime) Close() {
	if r.pool != nil {
		r.pool.stop()
		r.pool = nil
	}
}

// parCall describes one rule evaluation dispatched to the pool. The
// runtime owns a single reusable instance; workers only read it.
type parCall struct {
	run      *compiledRule
	frontier []Tuple
	fps      []uint64 // per-ord partition fingerprint
	owner    []uint8  // per-ord worker id
	delta    bool     // frontier semantics: re-check bound cols with Equal
	agg      bool     // record aggregate binding rows instead of heads
	dedup    *Table   // head table for the duplicate pre-check; nil disables
	aggGroup int      // group columns per agg record (agg only)
	aggStr   int      // record stride = aggGroup + len(head.aggs) (agg only)
}

// derivRun is one frontier ordinal's recorded derivations: n records
// starting at record index start in the worker's arena, plus the count
// of derivations the duplicate pre-check proved storage would reject
// (merged as counter bumps, no replay needed).
type derivRun struct {
	ord   int32
	start int32
	n     int32
	dups  int32
}

// parWorker is one pool worker's private state. Everything here is
// touched only by the worker goroutine between dispatch and wg.Done,
// and only by the merging main goroutine after wg.Wait — the WaitGroup
// provides the happens-before edge in both directions.
type parWorker struct {
	id int
	r  *Runtime

	// Per-variant private clones of the compiled rule: same expression
	// tree and plan, own env/head/probe buffers and probe memo.
	execs map[*compiledRule]*compiledRule

	call   *parCall
	cur    *compiledRule // clone being executed
	ords   []int32       // my frontier ordinals, sorted by (key fp, ord)
	sorter ordSorter

	// Arena: derivation records appended flat, stride = head arity (or
	// the aggregate record stride). Reset per call, capacity retained.
	dvals   []Value
	nrec    int32
	runs    []derivRun
	runSort runSorter
	dupCt   int32
	scratch []Value // dedup pre-check normalization buffer

	sinkDerivFn func([]Value) error
	sinkAggFn   func([]Value) error

	err    error
	cursor int // merge-side run cursor
}

// fixpool is the per-runtime worker pool. Workers are persistent
// goroutines fed one parCall at a time; the main goroutine blocks on
// the WaitGroup, so at most one call is ever in flight and the pool
// adds no concurrency beyond the two-phase call itself.
type fixpool struct {
	n       int
	workers []*parWorker
	chans   []chan *parCall
	wg      sync.WaitGroup
}

func newFixpool(r *Runtime, n int) *fixpool {
	p := &fixpool{n: n, workers: make([]*parWorker, n), chans: make([]chan *parCall, n)}
	for i := 0; i < n; i++ {
		w := &parWorker{id: i, r: r, execs: make(map[*compiledRule]*compiledRule)}
		w.sinkDerivFn = w.sinkDeriv
		w.sinkAggFn = w.sinkAgg
		p.workers[i] = w
		ch := make(chan *parCall, 1)
		p.chans[i] = ch
		//boomvet:allow(gospawn) sanctioned fixpoint worker pool: workers evaluate against frozen tables into private arenas; derivations merge serially in frontier order in phase 2, so execution replays bit-identically to serial evaluation
		go w.loop(ch, p)
	}
	return p
}

func (p *fixpool) stop() {
	for _, ch := range p.chans {
		close(ch)
	}
}

func (w *parWorker) loop(ch chan *parCall, p *fixpool) {
	for c := range ch {
		w.process(c, p)
	}
}

// ensurePool returns the pool, creating it lazily on first use.
func (r *Runtime) ensurePool() *fixpool {
	if r.pool == nil && r.parWorkers > 1 {
		r.pool = newFixpool(r, r.parWorkers)
	}
	return r.pool
}

// parOn reports whether parallel dispatch is enabled at all: a pool is
// configured, and the process has a second CPU to run it on (or the
// force override is set).
func (r *Runtime) parOn() bool {
	return r.parWorkers > 1 && (r.parForce || r.parCPUs > 1)
}

// parReady gates the per-call dispatch decision: pool on,
// provenance off, compiled form eligible, frontier big enough to
// amortize dispatch.
func (r *Runtime) parReady(run *compiledRule, frontierLen int) bool {
	return r.parOn() && !r.provOn && run.parOK && frontierLen >= r.parMinFrontier
}

// prewarmTables builds, serially, every index and sorted cache the
// workers will probe. After this the probe paths the workers take are
// strictly read-only. Building here instead of lazily at first probe
// is equivalent: eligible rules never mutate a probed table mid-call.
func (r *Runtime) prewarmTables(run *compiledRule) {
	for i, op := range run.body {
		if i == 0 || (op.kind != opScan && op.kind != opNotin) {
			continue
		}
		t := r.tables[op.table]
		if t == nil {
			continue
		}
		if len(op.boundCols) == 0 {
			t.sortedTuples()
		} else {
			t.ensureIndex(op.boundCols)
		}
	}
}

// partitionFrontier computes each frontier tuple's partition
// fingerprint (join-key columns when the plan identified them,
// whole-tuple hash otherwise) and assigns owners. Same key ⇒ same
// worker, so a key's index probe happens exactly once globally.
func (r *Runtime) partitionFrontier(run *compiledRule, frontier []Tuple, nworkers int) {
	if cap(r.parFPs) < len(frontier) {
		r.parFPs = make([]uint64, len(frontier))
		r.parOwner = make([]uint8, len(frontier))
	}
	r.parFPs = r.parFPs[:len(frontier)]
	r.parOwner = r.parOwner[:len(frontier)]
	n := uint64(nworkers)
	for i, tp := range frontier {
		var fp uint64
		if len(run.parKeyCols) > 0 {
			fp = tp.hashCols(run.parKeyCols)
		} else {
			fp = hashVals(tp.Vals)
		}
		r.parFPs[i] = fp
		r.parOwner[i] = uint8(fp % n)
	}
}

// runCall dispatches one call to every worker and waits for the
// barrier. Returns the wall time spent blocked (0 unless profiling).
func (p *fixpool) runCall(c *parCall, timed bool) int64 {
	p.wg.Add(p.n)
	for _, ch := range p.chans {
		ch <- c
	}
	if !timed {
		p.wg.Wait()
		return 0
	}
	start := time.Now() //boomvet:allow(walltime) profiling only: merge wait attribution
	p.wg.Wait()
	return time.Since(start).Nanoseconds() //boomvet:allow(walltime) profiling only: merge wait attribution
}

// evalRuleDeltaPar runs one eligible rule-delta call on the pool.
// handled=false (with nil error) means the caller must evaluate
// serially — either no pool or a worker-side error, in which case the
// untouched tables make the serial re-run exact.
func (r *Runtime) evalRuleDeltaPar(run *compiledRule, frontier []Tuple) (handled bool, err error) {
	p := r.ensurePool()
	if p == nil {
		return false, nil
	}
	c := &r.parCallBuf
	c.run = run
	//boomvet:allow(ownership) frontier holds stored delta tuples; the buffer is drained within the step
	c.frontier = frontier
	c.delta = true
	c.agg = false
	c.dedup = nil
	if !run.isDelete && !run.isDeferred && run.head.locCol < 0 {
		c.dedup = r.tables[run.head.table]
	}
	r.prewarmTables(run)
	r.partitionFrontier(run, frontier, p.n)
	c.fps = r.parFPs
	c.owner = r.parOwner

	wait := p.runCall(c, r.profOn)
	run.stats.parRuns++
	run.stats.parWaitNS += wait
	for _, w := range p.workers {
		if w.err != nil {
			return false, nil
		}
	}
	return true, r.mergeParDeltas(c, p)
}

// mergeParDeltas replays the recorded head derivations in global
// frontier order — phase 2. routeHead is the same routine serial
// emitHead uses, so dedup, replacement, watch events, deferred and
// remote routing all behave identically.
func (r *Runtime) mergeParDeltas(c *parCall, p *fixpool) error {
	run := c.run
	stride := len(run.head.exprs)
	stats := run.stats
	ensureParFires(stats, p.n)
	for _, w := range p.workers {
		w.cursor = 0
	}
	for ord := range c.frontier {
		w := p.workers[c.owner[ord]]
		rn := &w.runs[w.cursor]
		w.cursor++
		for k := 0; k < int(rn.n); k++ {
			base := (int(rn.start) + k) * stride
			stats.fires++
			r.derivedCt++
			if err := r.routeHead(run, Tuple{Table: run.head.table, Vals: w.dvals[base : base+stride]}, true); err != nil {
				return err
			}
		}
		// Derivations the pre-check proved duplicate: storage would
		// reject them without an event, so only the counters move.
		stats.fires += int64(rn.dups)
		r.derivedCt += int64(rn.dups)
		stats.parFires[w.id] += int64(rn.n) + int64(rn.dups)
	}
	return nil
}

// collectAggPar runs an eligible aggregate rule's body joins on the
// pool, for an evaluation of all groups that the caller has begun and
// will emit. Workers record one (group columns, aggregate inputs) row
// per satisfied binding; the merge replays them through the rule's
// aggCollector in global binding order, so accumulator state and group
// emission order are bit-identical to serial evaluation. This is the
// "merge partial aggregates deterministically" half of
// routing-vs-merging: groups may span workers freely because
// accumulation itself never runs concurrently. collected=false means
// nothing was collected and the caller must evaluate serially.
func (r *Runtime) collectAggPar(cr *compiledRule) (collected bool, err error) {
	op := cr.body[0]
	t := r.tables[op.table]
	if t == nil {
		return false, nil
	}
	var frontier []Tuple
	if len(op.boundCols) == 0 {
		frontier = t.sortedTuples()
	} else {
		vals, verr := op.probeVals(cr.envBuf, r, cr)
		if verr != nil {
			return false, nil // serial re-run reproduces the error exactly
		}
		op.candBuf = t.MatchInto(op.candBuf[:0], op.boundCols, vals)
		frontier = op.candBuf
	}
	if !r.parReady(cr, len(frontier)) {
		return false, nil
	}
	p := r.ensurePool()
	if p == nil {
		return false, nil
	}
	nGroup := 0
	for _, ce := range cr.head.exprs {
		if ce != nil {
			nGroup++
		}
	}
	c := &r.parCallBuf
	c.run = cr
	c.frontier = frontier
	c.delta = false
	c.agg = true
	c.dedup = nil
	c.aggGroup = nGroup
	c.aggStr = nGroup + len(cr.head.aggs)
	r.prewarmTables(cr)
	r.partitionFrontier(cr, frontier, p.n)
	c.fps = r.parFPs
	c.owner = r.parOwner

	wait := p.runCall(c, r.profOn)
	cr.stats.parRuns++
	cr.stats.parWaitNS += wait
	for _, w := range p.workers {
		if w.err != nil {
			return false, nil
		}
	}

	ensureParFires(cr.stats, p.n)
	for _, w := range p.workers {
		w.cursor = 0
	}
	for ord := range c.frontier {
		w := p.workers[c.owner[ord]]
		rn := &w.runs[w.cursor]
		w.cursor++
		for k := 0; k < int(rn.n); k++ {
			base := (int(rn.start) + k) * c.aggStr
			cr.agg.collectRow(w.dvals[base:base+c.aggGroup], w.dvals[base+c.aggGroup:base+c.aggStr])
		}
		cr.stats.parFires[w.id] += int64(rn.n)
	}
	return true, nil
}

func ensureParFires(stats *ruleStats, n int) {
	for len(stats.parFires) < n {
		stats.parFires = append(stats.parFires, 0)
	}
}

// --- worker side ---

// process evaluates the worker's partition of one call. Any panic is
// captured as an error: the merge is skipped and the call re-runs
// serially, reproducing serial behaviour (error, panic, or success)
// exactly since nothing was mutated.
func (w *parWorker) process(c *parCall, p *fixpool) {
	defer func() {
		if rec := recover(); rec != nil {
			w.err = fmt.Errorf("overlog: parallel fixpoint worker %d: panic: %v", w.id, rec)
		}
		p.wg.Done()
	}()
	w.call = c
	w.err = nil
	w.dvals = w.dvals[:0]
	w.runs = w.runs[:0]
	w.nrec = 0
	w.dupCt = 0
	wcr := w.execFor(c.run)
	w.cur = wcr

	// Gather my ordinals and sort them by (key fp, ord): same-key
	// bindings become adjacent, so the clone's probe memo makes each
	// distinct join key hit the index once per batch.
	w.ords = w.ords[:0]
	me := uint8(w.id)
	for ord := range c.frontier {
		if c.owner[ord] == me {
			w.ords = append(w.ords, int32(ord))
		}
	}
	w.sorter.ords = w.ords
	w.sorter.fps = c.fps
	sort.Sort(&w.sorter)

	op := wcr.body[0]
	sink := w.sinkDerivFn
	if c.agg {
		sink = w.sinkAggFn
	}
	for _, ord := range w.ords {
		rn := derivRun{ord: ord, start: w.nrec}
		err := w.evalTuple(wcr, op, c.frontier[ord], c.delta, sink)
		rn.n = w.nrec - rn.start
		rn.dups = w.dupCt
		w.dupCt = 0
		w.runs = append(w.runs, rn)
		if err != nil {
			w.err = err
			return
		}
	}
	// Merge walks ords in global order; restore it.
	w.runSort.runs = w.runs
	sort.Sort(&w.runSort)
}

// evalTuple replicates exactly what serial execOps does for one
// frontier candidate: bound-column re-check (delta frontier semantics
// use Equal, probed candidates were already keyEqual-matched),
// repeated-variable filters, slot binding, then descent through the
// remaining body ops.
func (w *parWorker) evalTuple(wcr *compiledRule, op *bodyOp, cand Tuple, delta bool, sink func([]Value) error) error {
	env := wcr.envBuf
	if delta {
		// body[0]'s bound expressions see no earlier bindings, so they
		// are env-independent (constants); pure by eligibility.
		vals, err := op.probeVals(env, w.r, wcr)
		if err != nil {
			return err
		}
		for i, col := range op.boundCols[:op.plainBound] {
			if !cand.Vals[col].Equal(vals[i]) {
				return nil
			}
		}
	}
	if !w.r.passesFilters(op, cand, env) {
		return nil
	}
	for i, col := range op.bindCols {
		env[op.bindSlots[i]] = cand.Vals[col]
	}
	return w.r.execOps(wcr, 1, -1, nil, env, sink)
}

// sinkDeriv records one head derivation into the arena. The duplicate
// pre-check probes the (frozen) head table: a derivation whose exact
// tuple is already stored merges as a counter bump instead of a replay
// — in saturating fixpoints that is the overwhelming majority, and it
// moves the dedup hashing off the serial merge. Derivations that fail
// the pre-check conservatively record in full; the merge's insert
// dedups them exactly as serial evaluation would.
func (w *parWorker) sinkDeriv(env []Value) error {
	wcr := w.cur
	vals := wcr.headBuf
	for i, ce := range wcr.head.exprs {
		v, err := ce.eval(env, w.r)
		if err != nil {
			return fmt.Errorf("rule %s head: %w", wcr.name, err)
		}
		vals[i] = v
	}
	if t := w.call.dedup; t != nil && t.checkTuple(Tuple{Table: wcr.head.table, Vals: vals}) == nil {
		if cap(w.scratch) < len(vals) {
			w.scratch = make([]Value, len(vals))
		}
		sc := w.scratch[:len(vals)]
		copy(sc, vals)
		nt := t.normalize(Tuple{Table: wcr.head.table, Vals: sc})
		bucket := t.rows.get(nt.hashCols(t.keys))
		if i := t.findRow(bucket, nt); i >= 0 && bucket[i].Equal(nt) {
			w.dupCt++
			return nil
		}
	}
	w.dvals = append(w.dvals, vals...)
	w.nrec++
	return nil
}

// sinkAgg records one aggregate binding row: evaluated group columns
// followed by one value per aggregate spec (the aggregated slot's
// value, or nil for count<_>). Accumulation happens at merge time.
func (w *parWorker) sinkAgg(env []Value) error {
	wcr := w.cur
	for _, ce := range wcr.head.exprs {
		if ce == nil {
			continue
		}
		v, err := ce.eval(env, w.r)
		if err != nil {
			return fmt.Errorf("rule %s aggregate group column: %w", wcr.name, err)
		}
		w.dvals = append(w.dvals, v)
	}
	for _, spec := range wcr.head.aggs {
		if spec.slot < 0 {
			w.dvals = append(w.dvals, NilValue)
		} else {
			w.dvals = append(w.dvals, env[spec.slot])
		}
	}
	w.nrec++
	return nil
}

// execFor returns the worker's private clone of a compiled form:
// shared (immutable) expression trees and plan metadata, private
// evaluation buffers and probe memos.
func (w *parWorker) execFor(run *compiledRule) *compiledRule {
	if c, ok := w.execs[run]; ok {
		return c
	}
	c := &compiledRule{}
	*c = *run
	c.body = make([]*bodyOp, len(run.body))
	for i, op := range run.body {
		bo := &bodyOp{}
		*bo = *op
		bo.valsBuf = make([]Value, len(op.boundExprs))
		bo.candBuf = nil
		bo.memoVals = make([]Value, len(op.boundExprs))
		bo.memoOK = false
		c.body[i] = bo
	}
	c.envBuf = make([]Value, run.nslots)
	c.headBuf = make([]Value, len(run.head.exprs))
	w.execs[run] = c
	return c
}

// ordSorter orders a worker's frontier ordinals by (partition
// fingerprint, ordinal) without a per-call closure allocation.
type ordSorter struct {
	ords []int32
	fps  []uint64
}

func (s *ordSorter) Len() int { return len(s.ords) }
func (s *ordSorter) Less(i, j int) bool {
	a, b := s.ords[i], s.ords[j]
	if s.fps[a] != s.fps[b] {
		return s.fps[a] < s.fps[b]
	}
	return a < b
}
func (s *ordSorter) Swap(i, j int) { s.ords[i], s.ords[j] = s.ords[j], s.ords[i] }

// runSorter restores derivation runs to global frontier order.
type runSorter struct{ runs []derivRun }

func (s *runSorter) Len() int           { return len(s.runs) }
func (s *runSorter) Less(i, j int) bool { return s.runs[i].ord < s.runs[j].ord }
func (s *runSorter) Swap(i, j int)      { s.runs[i], s.runs[j] = s.runs[j], s.runs[i] }
