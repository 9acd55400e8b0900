package chaos

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Outcome is one scenario run's result. Err reports infrastructure
// failures (the simulation itself broke); Violations report the system
// under test breaking its invariants. Provenance, when non-empty, is
// the rendered derivation DAG of the first violation — which monitor
// rule fired, from which tuples, chased across nodes. Tracer is the
// run's event ring — sends, drops, faults and the cross-node spans of
// traced requests — so a failure report can show what led up to it
// and where each request spent its time. Digest, set when a run
// completes, condenses the cluster's final state (see digest): a run
// that behaves the same yields the same Digest.
type Outcome struct {
	Violations []Violation
	Provenance string
	Tracer     *telemetry.Tracer
	Digest     string
	Err        error
}

// digest hashes c.Fingerprint() to 16 hex digits.
func digest(c *sim.Cluster) string {
	sum := sha256.Sum256([]byte(c.Fingerprint()))
	return hex.EncodeToString(sum[:8])
}

// Driver is what a scenario body needs of a cluster, sim.Cluster or the
// live TCP one (chaos/live): faults, injection, inspection, running.
type Driver interface {
	Faults
	Inject(node string, tp overlog.Tuple, delayMS int64)
	RunOn(node string, fn func(*overlog.Runtime))
	Run(untilMS int64) error
	RunUntil(cond func() bool, maxMS int64) (bool, error)
	Now() int64
}

// Builder is a Driver a scenario adds its nodes to. A node listens at
// its runtime's LocalAddr, which on the simulator is its name.
type Builder interface {
	Driver
	AddNode(name string, opts ...overlog.Option) (*overlog.Runtime, error)
	AttachService(name string, svc sim.Service) error
	SetSpec(name string, spec sim.NodeSpec) error
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
