// Package boommr implements BOOM-MR: the MapReduce engine from "BOOM
// Analytics" (EuroSys 2010) whose JobTracker scheduling state machine
// is Overlog while the MapReduce dataflow (split reading, map/reduce
// execution, shuffle) remains imperative — precisely the paper's split,
// where BOOM-MR replaced Hadoop's JobTracker internals with rules but
// kept Hadoop's task execution in Java.
//
// Scheduling policy is a plug-in rule set: fifo.olg is plain
// first-come-first-served; late.olg adds the LATE speculative
// re-execution heuristic (Zaharia et al., OSDI 2008) in a dozen rules,
// reproducing the paper's point that policy changes are small,
// declarative deltas.
package boommr

import (
	"embed"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
)

// Files holds the package's Overlog programs, one per .olg file.
//
//go:embed *.olg
var Files embed.FS

// MRProtocolDecls is the tuple protocol between the JobTracker,
// TaskTrackers, and job clients.
//
//go:embed protocol.olg
var MRProtocolDecls string

var (
	//go:embed jobtracker.olg
	jobTrackerRules string
	//go:embed fifo.olg
	policyFIFO string
	//go:embed fair.olg
	policyFAIR string
	//go:embed late.olg
	policyLATE string
	//go:embed tracker.olg
	trackerRules string
)

// Params maps c onto the params each of the package's files declares,
// by file name.
func (c MRConfig) Params() map[string][]overlog.Param {
	return map[string][]overlog.Param{
		"jobtracker.olg": {
			{Name: "sched_ms", Value: overlog.Int(c.SchedTickMS)},
			{Name: "tracker_ttl_ms", Value: overlog.Int(c.TrackerTTL)},
		},
		"late.olg": {
			{Name: "slow_frac", Value: overlog.Float(c.SlowFrac)},
			{Name: "spec_min_ms", Value: overlog.Int(c.SpecMinMS)},
			{Name: "max_spec", Value: overlog.Int(int64(c.MaxSpec))},
		},
		"tracker.olg": {{Name: "hb_ms", Value: overlog.Int(c.HeartbeatMS)}},
	}
}

// LintUnits declares one analysis unit per deployable policy
// combination, each pairing the JobTracker role with the TaskTracker
// role so cross-node dataflow (heartbeats, assignments, reports)
// resolves. Policies are linted in separate units because they are
// mutually exclusive at install time. Params keep their declared
// defaults.
func LintUnits() []analysis.Unit {
	unit := func(name string, policies ...string) analysis.Unit {
		return analysis.Unit{
			Name: "boommr-" + name,
			Groups: map[string][]string{
				"jobtracker":  append([]string{MRProtocolDecls, jobTrackerRules}, policies...),
				"tasktracker": {MRProtocolDecls, trackerRules},
			},
		}
	}
	return []analysis.Unit{
		unit("fifo", policyFIFO),
		unit("fair", policyFAIR),
		unit("late", policyFIFO, policyLATE),
	}
}
