package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/overlog"
)

// Collector is a watch sink that records tuple traffic per table — the
// BOOM monitoring revision's "network trace" and invariant hooks. It
// attaches to any runtime (masters, trackers, replicas) and counts
// inserts/deletes without altering program behaviour.
type Collector struct {
	mu      sync.Mutex
	inserts map[string]int64
	deletes map[string]int64
	// Fixed ring of recent events for debugging/invariant checks. A
	// ring (rather than append-and-reslice) keeps the backing array at
	// exactly KeepLastN entries and overwrites evicted slots, so old
	// events' tuples become collectable as soon as they fall out of the
	// window.
	recent []overlog.WatchEvent
	next   int
	full   bool
	// KeepLastN bounds the window; set it before the first event.
	KeepLastN int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		inserts:   map[string]int64{},
		deletes:   map[string]int64{},
		KeepLastN: 256,
	}
}

// Attach registers the collector on a runtime and (optionally) widens
// the watch set to every table, mirroring the paper's metaprogrammed
// rewrite that added a watch to each rule head.
func (col *Collector) Attach(rt *overlog.Runtime, tables ...string) error {
	for _, t := range tables {
		if err := rt.AddWatch(t, ""); err != nil {
			return err
		}
	}
	rt.RegisterWatcher(col.observe)
	return nil
}

func (col *Collector) observe(ev overlog.WatchEvent) {
	col.mu.Lock()
	defer col.mu.Unlock()
	if ev.Insert {
		col.inserts[ev.Tuple.Table]++
	} else {
		col.deletes[ev.Tuple.Table]++
	}
	if col.KeepLastN > 0 {
		if len(col.recent) != col.KeepLastN {
			col.recent = make([]overlog.WatchEvent, col.KeepLastN)
			col.next, col.full = 0, false
		}
		col.recent[col.next] = ev
		col.next++
		if col.next == len(col.recent) {
			col.next, col.full = 0, true
		}
	}
}

// RecentEvents returns the buffered window oldest-first. The result is
// a copy; the caller may hold it across further events.
func (col *Collector) RecentEvents() []overlog.WatchEvent {
	col.mu.Lock()
	defer col.mu.Unlock()
	if !col.full {
		return append([]overlog.WatchEvent(nil), col.recent[:col.next]...)
	}
	out := make([]overlog.WatchEvent, 0, len(col.recent))
	out = append(out, col.recent[col.next:]...)
	return append(out, col.recent[:col.next]...)
}

// Inserts returns the insert count for a table.
func (col *Collector) Inserts(table string) int64 {
	col.mu.Lock()
	defer col.mu.Unlock()
	return col.inserts[table]
}

// Total returns total observed events.
func (col *Collector) Total() int64 {
	col.mu.Lock()
	defer col.mu.Unlock()
	var n int64
	for _, v := range col.inserts {
		n += v
	}
	for _, v := range col.deletes {
		n += v
	}
	return n
}

// Report renders per-table counts sorted by volume.
func (col *Collector) Report() string {
	col.mu.Lock()
	defer col.mu.Unlock()
	type row struct {
		table string
		ins   int64
		del   int64
	}
	var rows []row
	for t, n := range col.inserts {
		rows = append(rows, row{t, n, col.deletes[t]})
	}
	for t, n := range col.deletes {
		if _, ok := col.inserts[t]; !ok {
			rows = append(rows, row{t, 0, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ins != rows[j].ins {
			return rows[i].ins > rows[j].ins
		}
		return rows[i].table < rows[j].table
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "table", "inserts", "deletes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10d %10d\n", r.table, r.ins, r.del)
	}
	return b.String()
}
