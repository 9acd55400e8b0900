package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var gossipCfg = membership.Config{ProbeInterval: 500 * time.Millisecond}

// Gossip runs the membership unit on a master and three datanodes
// through a kill, a partition cutting a datanode off from every live
// peer, and a same-address crash-restart long enough to be declared
// dead. The harness checks the views against ground truth: a node down
// for the detection bound is dead in every live view by then, and after
// the faults plus a grace window no live node is dead in a live view.
func Gossip() Scenario { return gossip(gossipCfg.DetectionBoundMS(4)) }

func gossip(boundMS int64) Scenario {
	addrs := []string{"m:0", "dn:0", "dn:1", "dn:2"}
	schedule := func(seed int64) Schedule {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(3)
		dn := func(i int) string { return addrs[1+perm[i]] }
		cut, cutFor := 7500+int64(rng.Intn(1000)), 3000+int64(rng.Intn(1000))
		return Schedule{
			{AtMS: 2000 + int64(rng.Intn(1000)), Kind: Kill, Node: dn(0)},
			{AtMS: cut, Kind: Partition, A: dn(1), B: "m:0", DurMS: cutFor},
			{AtMS: cut, Kind: Partition, A: dn(1), B: dn(2), DurMS: cutFor},
			{AtMS: 24000 + int64(rng.Intn(1000)), Kind: CrashRestart, Node: dn(2),
				DurMS: boundMS + 500 + int64(rng.Intn(1000))},
		}
	}
	run := func(seed int64, sched Schedule) Outcome {
		tracer := telemetry.NewTracer(0)
		c := sim.NewCluster(sim.WithClusterSeed(seed), sim.WithTelemetry(telemetry.NewRegistry()),
			sim.WithTracer(tracer))
		out := Outcome{Tracer: tracer}
		cfg := gossipCfg
		cfg.Seeds, cfg.SeedRoles = addrs[:1], map[string]string{"m:0": "master"}
		for i, a := range addrs {
			role := "datanode"
			if i == 0 {
				role = "master"
			}
			// The harness records view violations into the node's
			// durable ledger, so a later restart keeps them.
			spec := func(fresh *overlog.Runtime) ([]sim.Service, error) {
				if err := membership.Install(fresh, role, cfg); err != nil {
					return nil, err
				}
				return nil, fresh.InstallSource(invViolationDecl)
			}
			if _, out.Err = spec(c.MustAddNode(a)); out.Err == nil {
				out.Err = c.SetSpec(a, spec)
			}
			if out.Err != nil {
				return out
			}
		}
		// expect records a violation in every live view that does not
		// know target or disagrees with dead about it.
		expect := func(inv, target string, dead bool) {
			for _, v := range addrs {
				row, known := membership.View(c.Node(v))[target]
				if !c.Killed(v) && (!known || (row.State == membership.Dead) != dead) {
					RecordViolation(c.Node(v), Violation{Inv: inv, Node: v, TimeMS: c.Now(),
						Detail: fmt.Sprintf("%s is %+v here (known: %v)", target, row, known)})
				}
			}
		}
		sched.Apply(c)
		for _, a := range sched {
			if node := a.Node; a.Kind == Kill || (a.Kind == CrashRestart && a.DurMS > boundMS) {
				c.At(a.AtMS+boundMS, func() error {
					if c.Killed(node) {
						expect("gossip-detection", node, true)
					}
					return nil
				})
			}
		}
		// Resurrection waits for an anti-entropy ping, which visits the
		// dead one per eight probes, then a refutation round trip.
		if out.Err = c.Run(sched.End() + 20*gossipCfg.ProbeInterval.Milliseconds()); out.Err != nil {
			return out
		}
		for _, a := range addrs {
			if !c.Killed(a) {
				expect("gossip-resurrection", a, false)
			}
		}
		out.Violations = Collect(c)
		out.Digest = digest(c)
		return out
	}
	return Scenario{Name: "gossip", Schedule: schedule, Run: run}
}
