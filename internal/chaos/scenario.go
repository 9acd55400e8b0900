package chaos

import (
	"repro/internal/telemetry"
)

// Outcome is one scenario run's result. Err reports infrastructure
// failures (the simulation itself broke); Violations report the system
// under test breaking its invariants. Provenance, when non-empty, is
// the rendered derivation DAG of the first violation — which monitor
// rule fired, from which tuples, chased across nodes. Tracer, when a
// scenario runs traced, holds the cross-node span record so a failure
// report can show where each request spent its time.
type Outcome struct {
	Violations []Violation
	Provenance string
	Journal    *telemetry.Journal
	Tracer     *telemetry.Tracer
	Err        error
}

// Violated reports whether the run surfaced invariant violations.
func (o Outcome) Violated() bool { return len(o.Violations) > 0 }

// Scenario pairs a workload with a seed-derived fault schedule. Run
// must be deterministic in (seed, sched): the sweep runner and the
// schedule shrinker replay it with edited schedules and rely on getting
// the same run back.
type Scenario struct {
	Name     string
	Schedule func(seed int64) Schedule
	Run      func(seed int64, sched Schedule) Outcome
}

// Registry lists the built-in scenarios by name (cmd/boom-chaos).
func Registry() []Scenario {
	return []Scenario{
		ReplicatedFS(),
		WeakDurability(),
		Paxos(),
		MapReduce(),
		Gossip(),
	}
}
