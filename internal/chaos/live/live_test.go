package live

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// scenario is the live registry's scenario of that name.
func scenario(t *testing.T, name string) chaos.Scenario {
	t.Helper()
	for _, sc := range Registry() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no live scenario %q", name)
	return chaos.Scenario{}
}

// mustCleanSeed1 replays a scenario's seed-1 schedule over real
// sockets and fails on a run error or an invariant violation.
func mustCleanSeed1(t *testing.T, name string) {
	t.Helper()
	sc := scenario(t, name)
	out := sc.Run(1, sc.Schedule(1))
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.Violated() {
		t.Fatalf("invariant violations over TCP:\n%s",
			chaos.Report(out.Violations, out.Tracer, 40))
	}
}

// TestPaxosLiveSeed replays the paxos scenario's seed-1 schedule over
// real sockets: leader crash-restart, partition, loss burst, late
// follower crash — monitors silent, every command decided everywhere.
func TestPaxosLiveSeed(t *testing.T) { mustCleanSeed1(t, "paxos") }

// TestMRLiveSeed replays the mr scenario's seed-1 schedule over real
// sockets: tracker crash-restart, kill and revive, loss burst — the
// job still finishes with the sequential wordcount.
func TestMRLiveSeed(t *testing.T) { mustCleanSeed1(t, "mr") }

// TestGossipLiveSeed replays the gossip scenario's seed-1 schedule over
// real sockets: every live view declares the killed and the
// long-restarted datanode dead within the detection bound, and no live
// node stays dead in a live view once the faults heal.
func TestGossipLiveSeed(t *testing.T) { mustCleanSeed1(t, "gossip") }

// TestFSLiveSeed replays the replicated-FS scenario's seed-1 schedule
// over real sockets: master and datanode crash-restarts, a master
// partition, loss, and a slow link, with acked writes reading back and
// the durability/replication monitors silent.
func TestFSLiveSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster run")
	}
	mustCleanSeed1(t, "fs")
}

// TestLiveSimScheduleParity pins the acceptance contract: the live
// registry serves every simulated scenario but fs-weak, under the same
// names and with byte-identical seed-derived schedules — one fault
// plan, two drivers.
func TestLiveSimScheduleParity(t *testing.T) {
	simByName := map[string]chaos.Scenario{}
	for _, sc := range chaos.Registry() {
		simByName[sc.Name] = sc
	}
	var names []string
	for _, lsc := range Registry() {
		names = append(names, lsc.Name)
	}
	if got := strings.Join(names, " "); got != "fs paxos mr gossip" {
		t.Fatalf("live registry serves %q, want fs, paxos, mr and gossip", got)
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

// TestSameInstantParity: a fault action and the node timers of one
// virtual millisecond run in the simulator's order. Node a pings node b
// on every 100 ms tick and b is killed at 300 ms, the instant of a's
// fourth tick. Both drivers kill b before that tick's ping: b keeps the
// same pings on either, and not the one sent at 300.
func TestSameInstantParity(t *testing.T) {
	run := func(c chaos.Builder) []int64 {
		var rts []*overlog.Runtime
		for _, name := range []string{"a", "b"} {
			rt, err := c.AddNode(name)
			if err == nil {
				err = rt.InstallSource(`
					event ping(To: addr, T: int);
					table peer(Addr: addr) keys(0);
					table got(T: int) keys(0);
					periodic tick interval 100;
					p1 ping(@P, T) :- tick(_, _), peer(P), T := now();
					p2 got(T) :- ping(@Me, T);
				`)
			}
			if err != nil {
				t.Fatal(err)
			}
			rts = append(rts, rt)
		}
		rts[0].Table("peer").Insert(overlog.NewTuple("peer", overlog.Addr(rts[1].LocalAddr())))
		if err := (chaos.Schedule{{AtMS: 300, Kind: chaos.Kill, Node: "b"}}).Apply(c); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		var got []int64
		c.RunOn("b", func(rt *overlog.Runtime) {
			for _, tp := range rt.Table("got").Tuples() {
				got = append(got, tp.Vals[0].AsInt())
			}
		})
		return got
	}
	want := run(sim.NewCluster())
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	if got := run(lc); fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("b got pings sent at %v over TCP, %v on the simulator", got, want)
	}
	for _, ms := range want {
		if ms >= 300 {
			t.Fatalf("the ping of the kill's instant arrived: %v", want)
		}
	}
}

// TestLiveRingOnScheduleTime: live spans are stamped with the cluster
// clock, the timeline violations report on, so the paxos seed-1 ring
// shows the leader's crash-restart at the schedule's own milliseconds
// — still there at the end of the run: the default ring holds the
// whole run's events.
func TestLiveRingOnScheduleTime(t *testing.T) {
	sched := chaos.Paxos().Schedule(1)
	crash := sched[0]
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	if err := chaos.Paxos().Body(chaos.Env{Builder: lc}, 1, sched); err != nil {
		t.Fatal(err)
	}
	ring, end := lc.Tracer().Spans(), lc.Now()
	found := map[string]bool{}
	for _, sp := range ring {
		if sp.StartMS > end {
			t.Fatalf("span after the run's end at %d ms: %+v", end, sp)
		}
		if sp.Kind == "fault" && sp.Node == crash.Node {
			found[fmt.Sprintf("%s@%d", sp.Op, sp.StartMS)] = true
		}
	}
	for _, want := range []string{fmt.Sprintf("kill@%d", crash.AtMS), fmt.Sprintf("restart@%d", crash.AtMS+crash.DurMS)} {
		if !found[want] {
			t.Fatalf("no %s fault span for %s in the ring: %v", want, crash.Node, found)
		}
	}
}

// TestLiveApplyRejectsUnknownNodes: a schedule naming a node the live
// cluster lacks fails the run, as on the simulator.
func TestLiveApplyRejectsUnknownNodes(t *testing.T) {
	sched := chaos.Schedule{{AtMS: 1000, Kind: chaos.Kill, Node: "px:9"}}
	out := scenario(t, "paxos").Run(1, sched)
	if out.Err == nil || !strings.Contains(out.Err.Error(), `no node "px:9"`) {
		t.Fatalf("got %v, want an error naming px:9", out.Err)
	}
}
