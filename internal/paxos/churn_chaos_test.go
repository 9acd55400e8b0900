package paxos_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
)

// TestSafetyUnderRandomFailures is the property-based safety check:
// leader-churn kills, drops, and latency jitter must never yield two
// replicas deciding different commands for one slot. The churn is a
// chaos.Schedule — one replica down at a time, derived from the seed —
// so a failing seed's fault plan replays (and shrinks) verbatim. It
// lives in package paxos_test because chaos builds on paxos.
func TestSafetyUnderRandomFailures(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := sim.NewCluster(sim.WithClusterSeed(seed), sim.WithDropRate(0.05),
				sim.WithLatency(sim.UniformLatency(1, 10)))
			members := []string{"px:0", "px:1", "px:2"}
			cfg := paxos.DefaultConfig()
			for _, m := range members {
				if err := paxos.Install(c.MustAddNode(m), m, members, cfg); err != nil {
					t.Fatal(err)
				}
			}

			// Alternating kill/revive of random victims with random gaps;
			// a majority is always alive.
			var sched chaos.Schedule
			at := int64(1200)
			for j := 0; j < 4; j++ {
				victim := members[rng.Intn(len(members))]
				down := 1500 + int64(rng.Intn(2500))
				sched = append(sched,
					chaos.Action{AtMS: at, Kind: chaos.Kill, Node: victim},
					chaos.Action{AtMS: at + down, Kind: chaos.Revive, Node: victim})
				at += down + 1200 + int64(rng.Intn(1200))
			}
			if err := sched.Apply(c); err != nil {
				t.Fatal(err)
			}

			// Twelve commands hit random replicas across the fault window.
			// A command that lands on a dead replica is simply lost — the
			// check below is safety plus "something decided", not
			// per-command liveness.
			for i := 0; i < 12; i++ {
				i := i
				target := members[rng.Intn(len(members))]
				c.At(600+int64(i)*900+int64(rng.Intn(300)), func() error {
					id := fmt.Sprintf("s%d-%02d", seed, i)
					cmd := overlog.List(overlog.Str(id), overlog.Str("v"))
					c.Inject(target, overlog.NewTuple("paxos_request",
						overlog.Addr(target), overlog.Str(id), cmd), 0)
					return nil
				})
			}
			if err := c.Run(sched.End() + 20_000); err != nil {
				t.Fatal(err)
			}

			// Safety: no slot decided differently on two replicas.
			bySlot := map[int64]string{}
			for _, m := range members {
				for slot, cmd := range paxos.Decided(c.Node(m)) {
					rendered := overlog.List(cmd...).String()
					if prev, ok := bySlot[slot]; ok && prev != rendered {
						t.Fatalf("safety violation at slot %d: %s vs %s\nschedule:\n%s",
							slot, prev, rendered, sched)
					}
					bySlot[slot] = rendered
				}
			}
			// Liveness sanity: something was decided.
			total := 0
			for _, m := range members {
				if n := c.Node(m).Table("decided").Len(); n > total {
					total = n
				}
			}
			if total == 0 {
				t.Fatal("nothing decided at all")
			}
		})
	}
}
