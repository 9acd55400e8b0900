package chaos

import (
	_ "embed"
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlog"
)

// SLO monitoring is the same metaprogramming move as the invariant
// monitors, applied to performance: a sweep (telemetry.MetricSweep)
// mirrors registry series into sys::metric(Node, Name, Window, Value)
// tuples, and slo_monitor.olg compares them against declared bounds.
//
//go:embed slo_monitor.olg
var sloMonitorRules string

// InstallSLOMonitor loads the SLO rules onto a runtime and declares
// the given bounds (metric name, as swept into sys::metric, to
// inclusive upper bound). The runtime needs a sweep delivering
// sys::metric tuples for the rules to have anything to judge.
func InstallSLOMonitor(rt *overlog.Runtime, bounds map[string]int64) error {
	if err := rt.InstallSource(sloMonitorRules); err != nil {
		return fmt.Errorf("chaos: slo monitor: %w", err)
	}
	names := make([]string, 0, len(bounds))
	for name := range bounds {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "slo_bound(%q, %d);\n", name, bounds[name])
	}
	if b.Len() > 0 {
		if err := rt.InstallSource(b.String()); err != nil {
			return fmt.Errorf("chaos: slo bounds: %w", err)
		}
	}
	return nil
}
