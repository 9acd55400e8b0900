package telemetry

import (
	"repro/internal/overlog"
)

// AttachRuntime instruments an Overlog runtime with the standard node
// metrics. node labels every series so registries shared by several
// runtimes (the simulator) stay disambiguated; pass "" for a dedicated
// per-process registry.
//
// Metrics are fed from a step hook added beside any others (a tracer's),
// which the driver calls while it holds the runtime — no extra locking,
// and nothing is read from the runtime at scrape time. Call before the
// node starts stepping.
func AttachRuntime(reg *Registry, node string, rt *overlog.Runtime) {
	lbl := func(name string) string {
		if node == "" {
			return name
		}
		return L(name, "node", node)
	}
	steps := reg.Counter(lbl("boom_steps_total"), "completed Overlog timesteps")
	derived := reg.Counter(lbl("boom_tuples_derived_total"), "rule head derivations (pre-dedup)")
	inserted := reg.Counter(lbl("boom_tuples_inserted_total"), "tuples inserted (post-dedup)")
	envOut := reg.Counter(lbl("boom_envelopes_out_total"), "tuples emitted toward other nodes")
	external := reg.Counter(lbl("boom_tuples_in_total"), "external tuples consumed by steps")
	stored := reg.Gauge(lbl("boom_tuples_stored"), "tuples held across all tables")
	fixpoint := reg.Histogram(lbl("boom_fixpoint_ms"), "per-step fixpoint wall duration (ms)", nil)

	rt.AddStepHook(func(st overlog.StepStats) {
		steps.Inc()
		derived.Add(st.Derived)
		inserted.Add(st.Inserted)
		envOut.Add(int64(st.Envelopes))
		external.Add(int64(st.External))
		stored.Set(st.Stored)
		fixpoint.Observe(float64(st.DurationNS) / 1e6)
	})
}

// CountInserts counts inserts into the named tables as
// metric{table="..."} counter series (plus the node label when set).
// It widens the runtime's watch set, so it composes with existing
// watchers; call before the node starts stepping.
func CountInserts(reg *Registry, node string, rt *overlog.Runtime, metric, help string, tables ...string) error {
	counters := make(map[string]*Counter, len(tables))
	for _, t := range tables {
		if err := rt.AddWatch(t, "i"); err != nil {
			return err
		}
		kv := []string{"table", t}
		if node != "" {
			kv = append(kv, "node", node)
		}
		counters[t] = reg.Counter(L(metric, kv...), help)
	}
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if !ev.Insert {
			return
		}
		if c, ok := counters[ev.Tuple.Table]; ok {
			c.Inc()
		}
	})
	return nil
}

// GaugeTables exposes per-table tuple counts as metric{table="..."}
// gauges refreshed from the step hook... Table sizes can also be read
// ad hoc from /debug/tables; this helper is for the handful of tables
// worth a real time series (catalog size, live datanodes). The reader
// function is invoked at exposition time, so it must serialize its own
// runtime access — pass one built with SafeTableLen.
func GaugeTables(reg *Registry, node string, metric, help string, read func(table string) float64, tables ...string) {
	for _, t := range tables {
		t := t
		kv := []string{"table", t}
		if node != "" {
			kv = append(kv, "node", node)
		}
		reg.GaugeFunc(L(metric, kv...), help, func() float64 { return read(t) })
	}
}

// SafeTableLen builds a scrape-time table-size reader over a
// serialized runtime accessor (e.g. transport.Node.Runtime).
func SafeTableLen(access func(func(*overlog.Runtime))) func(table string) float64 {
	return func(table string) float64 {
		var n int
		access(func(rt *overlog.Runtime) {
			if tbl := rt.Table(table); tbl != nil {
				n = tbl.Len()
			}
		})
		return float64(n)
	}
}
