package overlog

import (
	"fmt"
	"sort"
	"strings"
)

// Table is the materialized storage for one relation on one node.
//
// Persistent tables keep tuples across timesteps, with update-in-place
// on primary-key collision (JOL/P2 semantics). Event tables hold tuples
// for the duration of a single timestep only.
//
// Storage is a hash map from a 64-bit fingerprint of the key columns to
// a (almost always singleton) chain of rows, plus lazily built
// secondary indexes on whatever columns — stored, or computed from the
// row — the evaluator joins on.
// Fingerprints hash the same canonical byte stream the old string-key
// encoding produced, so key semantics are unchanged; a fingerprint
// collision merely lengthens one chain, and every probe re-verifies
// with encoding-equality (keyEqual) before trusting a bucket hit.
type Table struct {
	decl *TableDecl
	keys []int // effective key columns (all columns when unspecified)

	rows fpMap // key fingerprint -> rows (collision chain)
	n    int   // live tuple count

	// indexes maps an integer-encoded column-set signature to a
	// secondary index; ixAll additionally lists every index (including
	// the vanishingly rare signature-collision overflow) for the
	// add/remove maintenance walk.
	indexes    map[uint64]*index
	ixOverflow []*index
	ixAll      []*index

	// computed lists the table's computed key columns: functions of a
	// row alone that some rule joins on (planComputedKeys). Column number
	// len(decl.Cols)+i stands for computed[i] applied to the row, so an
	// index's column list names stored and computed columns alike.
	computed []cexpr

	// pending holds rows stored since the last index synchronization.
	// Index maintenance is lazy: inserts append here (one cheap append,
	// no per-index hashing) and syncIndexes drains the backlog the next
	// time any index is consulted or modified. Tables that are written
	// in bursts and probed rarely — e.g. the derived table of a
	// transitive closure, whose own index is only probed while the base
	// relation's delta is non-empty — never pay per-insert index upkeep
	// for rows whose index entry is never read. Entries are the stored
	// rows' value slices (the table name is implied), and growth doubles
	// from a few slots, so an insert-heavy fixpoint's backlog reallocates
	// O(log n) times and a one-tuple step pays for one small array.
	pending [][]Value

	// generation increments on every mutation; used to invalidate the
	// sorted-scan cache and by iterators that must detect concurrent
	// modification during fixpoint bugs.
	generation uint64

	// sorted caches Tuples() output between mutations: full scans inside
	// fixpoints re-read it instead of re-sorting per probe.
	sorted    []Tuple
	sortedGen uint64
	sortedOK  bool

	// arena backs stored tuples' value slices in shared chunks, so an
	// insert-heavy fixpoint allocates once per arenaChunk values instead
	// of once per stored tuple. chain does the same for the singleton
	// row buckets the rows map holds (almost every key fingerprint maps
	// to exactly one row). Deleted and replaced rows leave their slots
	// dead until the chunk itself is unreachable — acceptable for the
	// grow-mostly tables fixpoints produce; Clear drops both arenas
	// with the rows.
	//
	// Chunk sizes climb a ladder (nextChunk) that Clear restarts: an
	// event table that holds one tuple for one step pays for a few
	// entries, not a full chunk, and a bulk load is at the full size
	// after six doublings. Chunks are dropped at Clear, never recycled
	// across steps: watchers and step hooks may still hold stored tuples.
	arena []Value
	chain []Tuple

	// id is the table's number in the runtime that declared it (index of
	// Runtime.ts) and stored that runtime's count of tuples held across
	// all its tables, kept here because storage is mutated directly too
	// (Clear, Insert on a sys:: table). A standalone table has neither.
	id     int
	stored *int64

	// removeCompares counts the rows index removals key-compared: the
	// visit-count guards read it.
	removeCompares int64
}

// arenaChunk and chainChunk are the full chunk sizes of the stored-
// tuple arena (in values) and the chain arena (in rows).
const (
	arenaChunk = 512
	chainChunk = arenaChunk / 2
)

// nextChunk returns the size of the chunk after one of capacity prev:
// double it, from full/64 (a few entries) up to full.
func nextChunk(prev, full int) int {
	n := prev * 2
	if n < full/64 {
		n = full / 64
	}
	if n > full {
		n = full
	}
	return n
}

// index is a secondary index on a list of key columns, stored or
// computed (column numbers >= the table's arity; see Table.computed).
type index struct {
	cols    []int
	buckets fpMap // fingerprint of key column values -> rows
	// computed marks an index with a computed key column. Such an index
	// only pre-filters: a probe verifies the stored columns and leaves
	// the computed ones to the equality test the planner lifted them
	// from, which is still in the rule body. unkeyed holds the rows for
	// which a computed column failed to evaluate; every probe returns
	// them, so that test raises the error a full scan would have met.
	computed bool
	unkeyed  []Tuple
	// pos maps a row's primary-key fingerprint to its slot in whichever
	// bucket (or unkeyed) holds it, so removing a row does not scan a
	// low-cardinality bucket. It is nil until a removal meets a bucket
	// longer than posMapMin — an index whose keys are near-unique never
	// builds one and pays nothing on insert — and from then on follows
	// every append and swap-remove until Clear. It is only ever a hint: a
	// hit is verified against the row in that slot, and a miss (two keys
	// of one bucket sharing a fingerprint) falls back to the scan.
	pos map[uint64]int32
}

// posMapMin is the bucket length past which a removal stops scanning
// and the index starts tracking slots (index.pos).
const posMapMin = 32

// indexSig packs a column list into a 64-bit signature: 8 bits per
// column for up to 8 small column numbers (the common case, and
// collision-free there), FNV-mixed beyond that. Lookups always verify
// the column list, so a colliding signature costs an overflow scan,
// never a wrong index.
func indexSig(cols []int) uint64 {
	if len(cols) <= 8 {
		sig := uint64(0)
		ok := true
		for _, c := range cols {
			if c >= 254 {
				ok = false
				break
			}
			sig = sig<<8 | uint64(c+1)
		}
		if ok {
			return sig
		}
	}
	h := fnvOffset64
	for _, c := range cols {
		h = fnvUint64(h, uint64(c))
	}
	return h
}

func colsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NewTable creates storage for the given declaration.
func NewTable(decl *TableDecl) *Table {
	keys := decl.KeyCols
	if len(keys) == 0 {
		keys = make([]int, len(decl.Cols))
		for i := range keys {
			keys[i] = i
		}
	}
	return &Table{
		decl:    decl,
		keys:    keys,
		indexes: make(map[uint64]*index),
	}
}

// Decl returns the table's declaration.
func (t *Table) Decl() *TableDecl { return t.decl }

// Name returns the table name.
func (t *Table) Name() string { return t.decl.Name }

// Len returns the current tuple count.
func (t *Table) Len() int { return t.n }

// grow adjusts the tuple count, and the owning runtime's with it.
func (t *Table) grow(d int) {
	t.n += d
	if t.stored != nil {
		*t.stored += int64(d)
	}
}

// KeyOf encodes a tuple's primary key (debugging/compat; storage itself
// keys by fingerprint).
func (t *Table) KeyOf(tp Tuple) string { return tp.Key(t.keys) }

// checkTuple validates arity and column types. KindAny columns accept
// anything; addr and string interconvert; int and float do not (silent
// numeric coercion in storage makes key semantics confusing).
func (t *Table) checkTuple(tp Tuple) error {
	if len(tp.Vals) != len(t.decl.Cols) {
		return fmt.Errorf("overlog: table %s: arity mismatch: got %d values, declared %d",
			t.decl.Name, len(tp.Vals), len(t.decl.Cols))
	}
	for i, v := range tp.Vals {
		want := t.decl.Cols[i].Type
		if v.IsNil() || want == KindAny {
			continue
		}
		got := v.Kind()
		ok := got == want ||
			(isStringy(want) && isStringy(got)) ||
			(isNumeric(want) && isNumeric(got))
		if !ok {
			return fmt.Errorf("overlog: table %s column %s: want %s, got %s (%s)",
				t.decl.Name, t.decl.Cols[i].Name, want, got, v)
		}
	}
	return nil
}

// normalize coerces string values destined for addr columns (and vice
// versa) so identity hashing is stable regardless of how the tuple was
// constructed. It rewrites tp.Vals in place.
func (t *Table) normalize(tp Tuple) Tuple {
	for i := range tp.Vals {
		want := t.decl.Cols[i].Type
		got := tp.Vals[i].Kind()
		switch {
		case want == KindAddr && got == KindString:
			tp.Vals[i] = Addr(tp.Vals[i].AsString())
		case want == KindString && got == KindAddr:
			tp.Vals[i] = Str(tp.Vals[i].AsString())
		case want == KindInt && got == KindFloat:
			tp.Vals[i] = Int(tp.Vals[i].AsInt())
		case want == KindFloat && got == KindInt:
			tp.Vals[i] = Float(tp.Vals[i].AsFloat())
		}
	}
	return tp
}

// findRow locates the row in a key-fingerprint chain whose key columns
// encoding-equal tp's, or -1.
//
//boomvet:noalloc
func (t *Table) findRow(bucket []Tuple, tp Tuple) int {
	for i := range bucket {
		if bucket[i].keyEqualCols(tp, t.keys) {
			return i
		}
	}
	return -1
}

// cloneTuple copies a tuple so storage never aliases a caller's (or
// the evaluator's reusable) value slice.
func cloneTuple(tp Tuple) Tuple { return tp.Clone() }

// ownTuple is cloneTuple for tuples this table stores: the copy's
// values are carved from the table arena (capacity-clipped, so later
// slice growth can never bleed into a neighbouring row).
func (t *Table) ownTuple(tp Tuple) Tuple {
	n := len(tp.Vals)
	if n == 0 {
		return Tuple{Table: tp.Table}
	}
	if cap(t.arena)-len(t.arena) < n {
		size := nextChunk(cap(t.arena), arenaChunk)
		if n > size {
			size = n
		}
		t.arena = make([]Value, 0, size)
	}
	a := len(t.arena)
	t.arena = append(t.arena, tp.Vals...)
	return Tuple{Table: tp.Table, Vals: t.arena[a : a+n : a+n]}
}

// ownChain carves a capacity-clipped singleton bucket for a new key
// fingerprint out of the shared chain arena; a fingerprint collision
// later appends past the clipped capacity and reallocates, leaving
// the carve dead.
func (t *Table) ownChain(stored Tuple) []Tuple {
	if cap(t.chain)-len(t.chain) < 1 {
		t.chain = make([]Tuple, 0, nextChunk(cap(t.chain), chainChunk))
	}
	a := len(t.chain)
	//boomvet:allow(ownership) stored is the storage-owned clone made by insertChecked
	t.chain = append(t.chain, stored)
	return t.chain[a : a+1 : a+1]
}

// Insert adds the tuple. The returns are (inserted, displaced):
// inserted is false when an identical tuple was already stored;
// displaced holds a tuple evicted by primary-key replacement. The
// stored copy never aliases tp.Vals.
func (t *Table) Insert(tp Tuple) (bool, *Tuple, error) {
	ins, displaced, _, err := t.insertChecked(tp)
	return ins, displaced, err
}

// insertChecked is Insert returning the stored (normalized, owned)
// tuple as well, so the evaluator's hot path avoids a second probe.
func (t *Table) insertChecked(tp Tuple) (bool, *Tuple, Tuple, error) {
	if err := t.checkTuple(tp); err != nil {
		return false, nil, Tuple{}, err
	}
	tp = t.normalize(tp)
	fp := tp.hashCols(t.keys)
	s := t.rows.slot(fp)
	bucket := s.b
	if i := t.findRow(bucket, tp); i >= 0 {
		old := bucket[i]
		if old.Equal(tp) {
			return false, nil, old, nil
		}
		// Same key, different non-key columns: replace.
		stored := t.ownTuple(tp)
		t.removeFromIndexes(old, fp)
		bucket[i] = stored
		t.deferIndexAdd(stored)
		t.generation++
		displaced := old
		return true, &displaced, stored, nil
	}
	stored := t.ownTuple(tp)
	if len(bucket) == 0 {
		s.fp = fp
		s.b = t.ownChain(stored)
		t.rows.added()
	} else {
		s.b = append(bucket, stored)
	}
	t.grow(1)
	t.deferIndexAdd(stored)
	t.generation++
	return true, nil, stored, nil
}

// InsertBatch bulk-inserts tuples, returning how many mutated the
// table (new rows plus key replacements; exact duplicates are
// skipped). Semantics per tuple are identical to Insert, but the
// allocations are batched: the rows map is pre-sized, every stored
// copy's values share one backing array, and each new hash bucket is
// carved from one shared chain array instead of allocating its own
// singleton slice. Displaced tuples from key replacement are
// discarded; callers that need them use Insert.
//
// The carves are capacity-clipped (backing[a:b:b]), so a later append
// to a bucket reallocates instead of clobbering its neighbour, and
// removeRow's in-place compaction stays confined to the bucket.
func (t *Table) InsertBatch(tps []Tuple) (int, error) {
	if len(tps) == 0 {
		return 0, nil
	}
	t.rows.reserve(len(tps))
	width := len(t.decl.Cols)
	valBacking := make([]Value, 0, width*len(tps))
	chain := make([]Tuple, len(tps))
	ci := 0
	mutated := 0
	for _, tp := range tps {
		if err := t.checkTuple(tp); err != nil {
			if mutated > 0 {
				t.generation++
			}
			return mutated, err
		}
		tp = t.normalize(tp)
		a := len(valBacking)
		valBacking = append(valBacking, tp.Vals...)
		stored := Tuple{Table: tp.Table, Vals: valBacking[a : a+width : a+width]}
		fp := stored.hashCols(t.keys)
		bucket := t.rows.get(fp)
		if i := t.findRow(bucket, stored); i >= 0 {
			old := bucket[i]
			if old.Equal(stored) {
				valBacking = valBacking[:a]
				continue
			}
			t.removeFromIndexes(old, fp)
			bucket[i] = stored
			t.deferIndexAdd(stored)
			mutated++
			continue
		}
		if len(bucket) == 0 {
			chain[ci] = stored
			t.rows.put(fp, chain[ci:ci+1:ci+1])
			ci++
		} else {
			t.rows.put(fp, append(bucket, stored))
		}
		t.grow(1)
		t.deferIndexAdd(stored)
		mutated++
	}
	if mutated > 0 {
		t.generation++
	}
	return mutated, nil
}

// Delete removes the stored tuple matching tp's key columns if the full
// tuple matches. It returns whether a tuple was removed.
func (t *Table) Delete(tp Tuple) (bool, error) {
	_, removed, err := t.remove(tp)
	return removed, err
}

// remove is Delete returning the stored row it removed as well.
func (t *Table) remove(tp Tuple) (Tuple, bool, error) {
	if err := t.checkTuple(tp); err != nil {
		return Tuple{}, false, err
	}
	tp = t.normalize(tp)
	fp := tp.hashCols(t.keys)
	bucket := t.rows.get(fp)
	i := t.findRow(bucket, tp)
	if i < 0 || !bucket[i].Equal(tp) {
		return Tuple{}, false, nil
	}
	old := bucket[i]
	t.removeRow(fp, i)
	t.removeFromIndexes(old, fp)
	t.generation++
	return old, true, nil
}

// DeleteByKey removes whatever tuple is stored under the key columns of
// tp, ignoring non-key columns. Returns the removed tuple if any.
func (t *Table) DeleteByKey(tp Tuple) (*Tuple, error) {
	if len(tp.Vals) != len(t.decl.Cols) {
		return nil, fmt.Errorf("overlog: table %s: arity mismatch in DeleteByKey", t.decl.Name)
	}
	tp = t.normalize(tp)
	fp := tp.hashCols(t.keys)
	bucket := t.rows.get(fp)
	i := t.findRow(bucket, tp)
	if i < 0 {
		return nil, nil
	}
	old := bucket[i]
	t.removeRow(fp, i)
	t.removeFromIndexes(old, fp)
	t.generation++
	return &old, nil
}

// removeRow deletes chain position i of the fp bucket.
func (t *Table) removeRow(fp uint64, i int) {
	bucket := t.rows.get(fp)
	last := len(bucket) - 1
	bucket[i] = bucket[last]
	bucket[last] = Tuple{}
	if last == 0 {
		t.rows.del(fp)
	} else {
		t.rows.put(fp, bucket[:last])
	}
	t.grow(-1)
}

// Contains reports whether an identical tuple is stored.
func (t *Table) Contains(tp Tuple) bool {
	if len(tp.Vals) != len(t.decl.Cols) {
		return false
	}
	tp = t.normalize(tp)
	bucket := t.rows.get(tp.hashCols(t.keys))
	i := t.findRow(bucket, tp)
	return i >= 0 && bucket[i].Equal(tp)
}

// LookupKey returns the tuple stored under the same primary key as tp.
// The returned tuple is storage-owned: callers must Clone before
// retaining or mutating it.
//
//boomvet:noalloc
func (t *Table) LookupKey(tp Tuple) (Tuple, bool) {
	if len(tp.Vals) != len(t.decl.Cols) {
		return Tuple{}, false
	}
	tp = t.normalize(tp)
	bucket := t.rows.get(tp.hashCols(t.keys))
	if i := t.findRow(bucket, tp); i >= 0 {
		return bucket[i], true
	}
	return Tuple{}, false
}

// Scan calls fn for every stored tuple; fn must not mutate the table.
func (t *Table) Scan(fn func(Tuple) bool) {
	for i := range t.rows.slots {
		for _, tp := range t.rows.slots[i].b {
			if !fn(tp) {
				return
			}
		}
	}
}

// sortedTuples returns all rows in deterministic order, rebuilding the
// cache only after mutations. The returned slice is the cache itself:
// callers inside the package must copy before the next table mutation;
// external callers go through Tuples, which copies.
func (t *Table) sortedTuples() []Tuple {
	if t.sortedOK && t.sortedGen == t.generation {
		return t.sorted
	}
	out := t.sorted[:0]
	if cap(out) < t.n {
		out = make([]Tuple, 0, t.n)
	}
	for i := range t.rows.slots {
		out = append(out, t.rows.slots[i].b...)
	}
	SortTuples(out)
	t.sorted = out
	t.sortedGen = t.generation
	t.sortedOK = true
	return out
}

// Tuples returns all stored tuples in deterministic order.
func (t *Table) Tuples() []Tuple {
	return append([]Tuple(nil), t.sortedTuples()...)
}

// Clear removes all tuples (used for event tables at end of step).
func (t *Table) Clear() {
	if t.n == 0 {
		return
	}
	t.rows.clear()
	t.grow(-t.n)
	for _, ix := range t.ixAll {
		ix.buckets.clear()
		ix.unkeyed = nil
		ix.pos = nil
	}
	t.sorted = nil
	t.sortedOK = false
	t.arena = nil
	t.chain = nil
	t.pending = nil
	t.generation++
}

// computedCol returns the column number standing for fn applied to a
// row, registering fn on first sight. fn reads the row as its env
// (slot i = column i) and must be exprRowOnly. Two rules computing the
// same function get the same number, hence the same indexes.
func (t *Table) computedCol(fn cexpr) int {
	sig := exprSig(fn)
	for i, have := range t.computed {
		if exprSig(have) == sig {
			return len(t.decl.Cols) + i
		}
	}
	t.computed = append(t.computed, fn)
	return len(t.decl.Cols) + len(t.computed) - 1
}

// keyFP fingerprints tp's key columns under ix. ok is false when a
// computed column fails to evaluate on this row.
func (t *Table) keyFP(ix *index, tp Tuple) (fp uint64, ok bool) {
	if !ix.computed {
		return tp.hashCols(ix.cols), true
	}
	width := len(t.decl.Cols)
	h := fnvOffset64
	for _, c := range ix.cols {
		if c < width {
			h = tp.Vals[c].hash(h)
			continue
		}
		v, err := t.computed[c-width].eval(tp.Vals, nil)
		if err != nil {
			return 0, false
		}
		h = v.hash(h)
	}
	return h, true
}

// Match returns stored tuples whose columns cols equal vals, using (and
// lazily building) a secondary index when cols is non-empty.
func (t *Table) Match(cols []int, vals []Value) []Tuple {
	return t.MatchInto(nil, cols, vals)
}

// MatchInto appends the tuples Match would return to dst and returns
// it. The evaluator calls it with per-operator reusable buffers so
// steady-state probes allocate nothing; results are copies of the
// bucket, so the table may be mutated while dst is iterated. Computed
// columns in cols narrow the candidates but are not verified here (see
// index.computed): the caller's own equality test decides.
func (t *Table) MatchInto(dst []Tuple, cols []int, vals []Value) []Tuple {
	if len(cols) == 0 {
		return append(dst, t.sortedTuples()...)
	}
	ix := t.ensureIndex(cols)
	if ix.computed {
		dst = t.appendPrefiltered(dst, ix.buckets.get(hashVals(vals)), cols, vals)
		return t.appendPrefiltered(dst, ix.unkeyed, cols, vals)
	}
	for _, tp := range ix.buckets.get(hashVals(vals)) {
		match := true
		for i, c := range cols {
			if !tp.Vals[c].keyEqual(vals[i]) {
				match = false
				break
			}
		}
		if match {
			dst = append(dst, tp)
		}
	}
	return dst
}

// appendPrefiltered is MatchInto's candidate filter for an index with
// computed columns: it verifies the stored columns among cols and lets
// the computed ones through.
func (t *Table) appendPrefiltered(dst, rows []Tuple, cols []int, vals []Value) []Tuple {
	width := len(t.decl.Cols)
	for _, tp := range rows {
		match := true
		for i, c := range cols {
			if c < width && !tp.Vals[c].keyEqual(vals[i]) {
				match = false
				break
			}
		}
		if match {
			dst = append(dst, tp)
		}
	}
	return dst
}

func (t *Table) ensureIndex(cols []int) *index {
	if len(t.pending) > 0 {
		t.syncIndexes()
	}
	sig := indexSig(cols)
	if ix, ok := t.indexes[sig]; ok {
		if colsEqual(ix.cols, cols) {
			return ix
		}
		for _, ox := range t.ixOverflow {
			if colsEqual(ox.cols, cols) {
				return ox
			}
		}
	}
	// Pre-size buckets for the current population: secondary keys are
	// usually near-unique, so one bucket per row is the right guess.
	ix := &index{cols: append([]int(nil), cols...)}
	for _, c := range cols {
		ix.computed = ix.computed || c >= len(t.decl.Cols)
	}
	ix.buckets.reserve(t.n)
	// Two-pass build from the sorted scan (not the rows map: within-
	// bucket order decides probe candidate order, so it must not vary
	// run to run). Pass one fingerprints every row and stable-sorts row
	// indices by fingerprint, so pass two can carve each bucket out of
	// one shared backing array instead of growing per-fp slices — the
	// stable sort keeps sortedTuples order within a bucket. Carves are
	// capacity-clipped so later appends and in-place removals stay
	// confined to their own bucket.
	src := t.sortedTuples()
	if len(src) > 0 {
		fps := make([]uint64, len(src))
		ord := make([]int, 0, len(src))
		for i, tp := range src {
			fp, ok := t.keyFP(ix, tp)
			if !ok {
				ix.unkeyed = append(ix.unkeyed, tp)
				continue
			}
			fps[i] = fp
			ord = append(ord, i)
		}
		sort.SliceStable(ord, func(a, b int) bool { return fps[ord[a]] < fps[ord[b]] })
		backing := make([]Tuple, len(ord))
		for i, o := range ord {
			backing[i] = src[o]
		}
		for i := 0; i < len(backing); {
			j := i + 1
			for j < len(backing) && fps[ord[j]] == fps[ord[i]] {
				j++
			}
			ix.buckets.put(fps[ord[i]], backing[i:j:j])
			i = j
		}
	}
	if prev, ok := t.indexes[sig]; ok && !colsEqual(prev.cols, cols) {
		t.ixOverflow = append(t.ixOverflow, ix)
	} else {
		t.indexes[sig] = ix
	}
	t.ixAll = append(t.ixAll, ix)
	return ix
}

// deferIndexAdd queues a freshly stored row for index maintenance.
// Callers pass the storage-owned copy (insertChecked clones before
// indexing), never the evaluator's scratch tuple. Tables with no
// index yet skip even the queue: ensureIndex builds from a full scan.
func (t *Table) deferIndexAdd(tp Tuple) {
	if len(t.ixAll) == 0 {
		return
	}
	if len(t.pending) == cap(t.pending) {
		newCap := cap(t.pending) * 2
		if newCap < chainChunk/64 {
			newCap = chainChunk / 64
		}
		grown := make([][]Value, len(t.pending), newCap)
		copy(grown, t.pending)
		t.pending = grown
	}
	t.pending = append(t.pending, tp.Vals)
}

// syncIndexes drains the pending backlog into every index. It runs
// before any index read or removal, so consumers always see a complete
// index; between probes the backlog just accumulates.
func (t *Table) syncIndexes() {
	name := t.decl.Name
	for i := range t.pending {
		t.addToIndexes(Tuple{Table: name, Vals: t.pending[i]})
		t.pending[i] = nil
	}
	t.pending = t.pending[:0]
}

// addToIndexes mirrors a stored tuple into every secondary index.
func (t *Table) addToIndexes(tp Tuple) {
	for _, ix := range t.ixAll {
		var slot int
		if fp, ok := t.keyFP(ix, tp); ok {
			bucket := append(ix.buckets.get(fp), tp)
			ix.buckets.put(fp, bucket)
			slot = len(bucket) - 1
		} else {
			//boomvet:allow(ownership) tp is a stored row: deferIndexAdd's callers pass the storage-owned clone
			ix.unkeyed = append(ix.unkeyed, tp)
			slot = len(ix.unkeyed) - 1
		}
		if ix.pos != nil {
			ix.pos[tp.hashCols(t.keys)] = int32(slot)
		}
	}
}

// removeFromIndexes takes a row that left the table (pk is the
// fingerprint of its primary key) out of every secondary index.
func (t *Table) removeFromIndexes(tp Tuple, pk uint64) {
	// The departing row may still sit in the pending backlog; drain it
	// first so the removal finds (and keeps) a complete index.
	if len(t.pending) > 0 {
		t.syncIndexes()
	}
	for _, ix := range t.ixAll {
		fp, ok := t.keyFP(ix, tp)
		if !ok {
			ix.unkeyed = t.removeByKey(ix, ix.unkeyed, tp, pk)
			continue
		}
		if bucket := t.removeByKey(ix, ix.buckets.get(fp), tp, pk); len(bucket) == 0 {
			ix.buckets.del(fp)
		} else {
			ix.buckets.put(fp, bucket)
		}
	}
}

// removeByKey drops from rows — one bucket of ix, or its unkeyed list —
// the row stored under tp's primary key, in place, by moving the last
// row into its slot: a bucket's order is probe candidate order, which
// rules pass on to everything they derive, so how the slot is found
// must not change what is left behind. A short bucket is scanned; the
// first removal to meet a long one has the index track slots from then
// on (index.pos).
func (t *Table) removeByKey(ix *index, rows []Tuple, tp Tuple, pk uint64) []Tuple {
	if ix.pos == nil && len(rows) > posMapMin {
		t.trackSlots(ix)
	}
	at := -1
	if s, ok := ix.pos[pk]; ok && int(s) < len(rows) {
		t.removeCompares++
		if rows[s].keyEqualCols(tp, t.keys) {
			at = int(s)
		}
	}
	if at < 0 {
		for i := range rows {
			t.removeCompares++
			if rows[i].keyEqualCols(tp, t.keys) {
				at = i
				break
			}
		}
		if at < 0 {
			return rows
		}
	}
	last := len(rows) - 1
	if ix.pos != nil {
		delete(ix.pos, pk)
		if at != last {
			ix.pos[rows[last].hashCols(t.keys)] = int32(at)
		}
	}
	rows[at] = rows[last]
	rows[last] = Tuple{}
	return rows[:last]
}

// trackSlots builds ix.pos from the index as it stands.
func (t *Table) trackSlots(ix *index) {
	ix.pos = make(map[uint64]int32, t.n)
	for i := range ix.buckets.slots {
		for slot, row := range ix.buckets.slots[i].b {
			ix.pos[row.hashCols(t.keys)] = int32(slot)
		}
	}
	for slot, row := range ix.unkeyed {
		ix.pos[row.hashCols(t.keys)] = int32(slot)
	}
}

// Dump renders the table contents for debugging, sorted.
func (t *Table) Dump() string {
	tuples := t.sortedTuples()
	lines := make([]string, len(tuples))
	for i, tp := range tuples {
		lines[i] = tp.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
