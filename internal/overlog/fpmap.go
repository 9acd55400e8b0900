package overlog

// fpMap is the storage layer's hash table: 64-bit key fingerprint →
// row bucket. It replaces map[uint64][]Tuple on the evaluator's
// hottest paths (duplicate-derivation membership tests, index probes,
// index maintenance), where the generic map's hashing and bucket
// machinery dominated profiles.
//
// Design: open addressing with linear probing over power-of-two
// tables. Fingerprints are already FNV-mixed, so the slot is just
// `fp & mask` — no re-hash. Each slot stores the fingerprint and the
// bucket side by side (32 bytes, two per cache line) so a probe pays
// one memory fetch, not one per array. A slot is occupied iff its
// bucket is non-nil (live buckets always hold at least one row, so nil
// is a safe emptiness sentinel and no separate metadata is needed).
// Deletion compacts the probe chain by backward shift, so lookups
// never pay for tombstones. Load is kept at or below 3/4.
//
// Iteration order is a deterministic function of the inserted keys —
// unlike the built-in map, identical insert/delete histories yield
// identical iteration order, which keeps unsorted scans replayable.
type fpMap struct {
	slots []fpSlot
	n     int
}

type fpSlot struct {
	fp uint64
	b  []Tuple
}

// fpMapMinCap is the smallest table allocated; must be a power of two.
const fpMapMinCap = 16

// len reports the number of live entries.
//
//boomvet:noalloc
func (m *fpMap) len() int { return m.n }

// get returns the bucket stored under fp, or nil.
//
//boomvet:noalloc
func (m *fpMap) get(fp uint64) []Tuple {
	if m.n == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	i := fp & mask
	for {
		s := &m.slots[i]
		if s.b == nil {
			return nil
		}
		if s.fp == fp {
			return s.b
		}
		i = (i + 1) & mask
	}
}

// slot returns a pointer to the slot where fp lives, or — after
// ensuring capacity — the empty slot where it would be inserted. The
// caller checks s.b: non-nil means fp is present. To insert, the
// caller sets s.fp and s.b and then calls added(). The pointer is
// invalidated by any other map operation. This is the storage hot
// path's combined lookup-or-prepare-insert: one probe walk instead of
// a get followed by a put.
func (m *fpMap) slot(fp uint64) *fpSlot {
	if m.n*4 >= len(m.slots)*3 {
		m.growTo(len(m.slots) * 2)
	}
	mask := uint64(len(m.slots) - 1)
	i := fp & mask
	for {
		s := &m.slots[i]
		if s.b == nil || s.fp == fp {
			return s
		}
		i = (i + 1) & mask
	}
}

// added records an insertion performed through slot().
func (m *fpMap) added() { m.n++ }

// put stores bucket under fp, inserting or overwriting. bucket must be
// non-empty: a nil value is the emptiness sentinel (use del).
func (m *fpMap) put(fp uint64, bucket []Tuple) {
	if m.n*4 >= len(m.slots)*3 {
		m.growTo(len(m.slots) * 2)
	}
	mask := uint64(len(m.slots) - 1)
	i := fp & mask
	for {
		s := &m.slots[i]
		if s.b == nil {
			s.fp = fp
			//boomvet:allow(ownership) callers pass storage-owned buckets (rows cloned via ownTuple before put)
			s.b = bucket
			m.n++
			return
		}
		if s.fp == fp {
			//boomvet:allow(ownership) callers pass storage-owned buckets (rows cloned via ownTuple before put)
			s.b = bucket
			return
		}
		i = (i + 1) & mask
	}
}

// del removes the entry stored under fp, if present, and compacts the
// probe chain it sat on (backward-shift deletion).
func (m *fpMap) del(fp uint64) {
	if m.n == 0 {
		return
	}
	mask := uint64(len(m.slots) - 1)
	i := fp & mask
	for {
		if m.slots[i].b == nil {
			return
		}
		if m.slots[i].fp == fp {
			break
		}
		i = (i + 1) & mask
	}
	m.n--
	j := i
	for {
		m.slots[i].b = nil
		for {
			j = (j + 1) & mask
			if m.slots[j].b == nil {
				return
			}
			// Shift j's entry back into the hole at i only if that does
			// not move it before its ideal slot (cyclic distance test).
			ideal := m.slots[j].fp & mask
			if (j-ideal)&mask >= (j-i)&mask {
				m.slots[i] = m.slots[j]
				i = j
				break
			}
		}
	}
}

// reserve grows the table so extra further insertions cannot trigger
// a resize (bulk-ingest pre-sizing).
func (m *fpMap) reserve(extra int) {
	need := m.n + extra
	capacity := len(m.slots)
	if capacity == 0 {
		capacity = fpMapMinCap
	}
	for capacity*3 < need*4 {
		capacity <<= 1
	}
	if capacity > len(m.slots) {
		m.growTo(capacity)
	}
}

// clear resets the map to empty. A backing array that never grew past
// the minimum is wiped and kept — an event table holding a tuple or two
// per step would otherwise reallocate it every step — and a larger one
// is released.
func (m *fpMap) clear() {
	if len(m.slots) != fpMapMinCap {
		m.slots = nil
	} else if m.n > 0 {
		for i := range m.slots {
			m.slots[i] = fpSlot{}
		}
	}
	m.n = 0
}

// growTo rehashes into a table of the given power-of-two capacity
// (minimum fpMapMinCap). Small tables grow 4x rather than 2x: the
// doubling ladder's cumulative allocation (and rehash traffic) is what
// GC profiles see during insert-heavy fixpoints, and quadrupling
// early cuts the ladder to ~1.3x the final size for almost no peak
// overcommit.
func (m *fpMap) growTo(capacity int) {
	if capacity < fpMapMinCap {
		capacity = fpMapMinCap
	} else if capacity <= 4096 {
		capacity *= 2
	}
	old := m.slots
	m.slots = make([]fpSlot, capacity)
	mask := uint64(capacity - 1)
	for idx := range old {
		if old[idx].b == nil {
			continue
		}
		i := old[idx].fp & mask
		for m.slots[i].b != nil {
			i = (i + 1) & mask
		}
		m.slots[i] = old[idx]
	}
}
