package chaos

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/boomfs"
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
	Killed(node string) bool
}

// Builder is a Driver a scenario adds its nodes to. A node listens at
// its runtime's LocalAddr, which on the simulator is its name.
type Builder interface {
	Driver
	AddNode(name string, opts ...overlog.Option) (*overlog.Runtime, error)
	AttachService(name string, svc sim.Service) error
	SetSpec(name string, spec sim.NodeSpec) error
}

// Env is what a runner hands a scenario body: the cluster to build on,
// and the one piece that differs per driver, an FS client.
type Env struct {
	Builder
	// FSClient starts a gateway client of the replicated masters at
	// addrs, giving each replica retryMS per try. The runner stops it.
	FSClient func(cfg boomfs.Config, retryMS int64, addrs []string) (*boomfs.Client, error)
}

// Body is a scenario written once: it adds its nodes to env, applies
// the schedule, drives its workload and records what it finds with
// RecordViolation on the cluster's nodes; the runner collects them.
type Body func(env Env, seed int64, sched Schedule) error

// Violated reports whether the run surfaced invariant violations.
func (o Outcome) Violated() bool { return len(o.Violations) > 0 }

// Scenario pairs a body with a seed-derived fault schedule. Run is the
// body on one driver: the simulator's runner in Registry, chaos/live's
// in its registry. On the simulator Run is deterministic in (seed,
// sched): the sweep runner and the schedule shrinker replay it with
// edited schedules and rely on getting the same run back.
type Scenario struct {
	Name     string
	Schedule func(seed int64) Schedule
	Body     Body
	Run      func(seed int64, sched Schedule) Outcome
}

// simScenario is a scenario run by the simulator's runner.
func simScenario(name string, schedule func(int64) Schedule, body Body) Scenario {
	return Scenario{Name: name, Schedule: schedule, Body: body,
		Run: func(seed int64, sched Schedule) Outcome { return runSim(body, seed, sched) }}
}

// runSim is the simulator's runner: a seeded cluster with telemetry,
// an event ring and lineage capture, the body, then the violations,
// the first one's derivation and the final state's digest.
func runSim(body Body, seed int64, sched Schedule) Outcome {
	tracer := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithClusterSeed(seed), sim.WithTelemetry(telemetry.NewRegistry()),
		sim.WithTracer(tracer), sim.WithProvenance(256))
	out := Outcome{Tracer: tracer}
	env := Env{Builder: c, FSClient: func(cfg boomfs.Config, retryMS int64, addrs []string) (*boomfs.Client, error) {
		cl, err := boomfs.NewClient(c, "client:0", cfg, addrs...)
		if err == nil {
			cl.UseGateway, cl.RetryMS = true, retryMS
		}
		return cl, err
	}}
	if out.Err = body(env, seed, sched); out.Err != nil {
		return out
	}
	out.Violations = Collect(c, c.Nodes())
	out.Provenance = ExplainViolation(c, out.Violations)
	out.Digest = digest(c)
	return out
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
