package live

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
)

// TestPaxosLiveSeed replays the paxos scenario's seed-1 schedule over
// real sockets: leader crash-restart, partition, loss burst, late
// follower crash — monitors silent, every command decided everywhere.
func TestPaxosLiveSeed(t *testing.T) {
	sc := Paxos()
	sched := sc.Schedule(1)
	out := sc.Run(1, sched)
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.Violated() {
		t.Fatalf("invariant violations over TCP:\n%s",
			chaos.Report(out.Violations, out.Tracer, 40))
	}
}

// TestFSLiveSeed replays the replicated-FS scenario's seed-1 schedule
// over real sockets: master and datanode crash-restarts, a master
// partition, loss, and a slow link, with acked writes reading back and
// the durability/replication monitors silent.
func TestFSLiveSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster run")
	}
	sc := FS()
	sched := sc.Schedule(1)
	out := sc.Run(1, sched)
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.Violated() {
		t.Fatalf("invariant violations over TCP:\n%s",
			chaos.Report(out.Violations, out.Tracer, 40))
	}
}

// TestLiveSimScheduleParity pins the acceptance contract: the live
// registry serves the same scenario names and byte-identical
// seed-derived schedules as the simulated registry — one fault plan,
// two drivers.
func TestLiveSimScheduleParity(t *testing.T) {
	simByName := map[string]chaos.Scenario{}
	for _, sc := range chaos.Registry() {
		simByName[sc.Name] = sc
	}
	for _, lsc := range Registry() {
		ssc, ok := simByName[lsc.Name]
		if !ok {
			t.Fatalf("live scenario %q has no sim counterpart", lsc.Name)
		}
		for seed := int64(1); seed <= 5; seed++ {
			a := fmt.Sprintf("%v", ssc.Schedule(seed))
			b := fmt.Sprintf("%v", lsc.Schedule(seed))
			if a != b {
				t.Fatalf("%s seed %d: schedules diverge\nsim:  %s\nlive: %s",
					lsc.Name, seed, a, b)
			}
		}
	}
}
