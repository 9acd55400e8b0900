package trace

import (
	"sync/atomic"

	"repro/internal/overlog"
)

// Collector is a watch sink that counts tuple traffic — the BOOM
// monitoring revision's "network trace". It attaches to any runtime
// (masters, trackers, replicas) and counts the inserts and deletes it
// is shown without altering program behaviour.
type Collector struct {
	total atomic.Int64
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach registers the collector on a runtime and (optionally) widens
// the watch set to every table, mirroring the paper's metaprogrammed
// rewrite that added a watch to each rule head.
func (col *Collector) Attach(rt *overlog.Runtime, tables ...string) error {
	for _, t := range tables {
		if err := rt.AddWatch(t, ""); err != nil {
			return err
		}
	}
	rt.RegisterWatcher(func(overlog.WatchEvent) { col.total.Add(1) })
	return nil
}

// Total returns the events observed, inserts and deletes alike.
func (col *Collector) Total() int64 { return col.total.Load() }
