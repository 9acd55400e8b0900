package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/overlog"
	"repro/internal/telemetry"
)

// gossipProgram is a chatty multi-node workload: every node pings a
// ring neighbour on a periodic, remote rules fan replies back, and an
// aggregate view summarizes what each node has heard. It keeps many
// nodes co-timed (all periodics share phase), the case where a
// scheduling bug would show up as divergent state.
const gossipProgram = `
	program gossip;
	periodic beat interval 10;
	event ping(Addr: addr, From: addr, N: int);
	event pong(Addr: addr, From: addr, N: int);
	table heard(From: addr, N: int) keys(0,1);
	table stats(C: int, Mx: int) keys(0,1);
	r1 ping(@Next, Me, Ord) :- beat(Ord, _), next_hop(Next), Me := localaddr();
	r2 pong(@From, Me, N) :- ping(@Me, From, N);
	r3 heard(From, N) :- pong(@Me, From, N), Me == localaddr();
	r4 stats(count<N>, max<N>) :- heard(_, N);
	table next_hop(Next: addr) keys(0);
`

// idleProg is a node that never wakes on its own: no periodics, no
// facts, one rule waiting for a poke that never comes. The event-
// driven scheduler must spend zero time on such nodes.
const idleProg = `
	program idle;
	event poke(N: int);
	table poked(N: int) keys(0);
	ri poked(N) :- poke(N);
`

// buildSparse assembles a cluster of `total` nodes where only the
// first `active` gossip in a ring; the rest are idle. Faults at fixed
// times exercise kill/revive interaction with the wake index.
func buildSparse(t *testing.T, total, active int) *Cluster {
	t.Helper()
	c := NewCluster(
		WithClusterSeed(42),
		WithLatency(UniformLatency(1, 9)),
		WithDropRate(0.05),
		WithTelemetry(telemetry.NewRegistry(), telemetry.NewJournal(1<<16)),
	)
	addrs := make([]string, active)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("act%d", i)
	}
	for i, addr := range addrs {
		rt := c.MustAddNode(addr)
		if err := rt.InstallSource(gossipProgram); err != nil {
			t.Fatal(err)
		}
		next := addrs[(i+1)%active]
		if _, _, err := rt.Table("next_hop").Insert(overlog.NewTuple("next_hop", overlog.Addr(next))); err != nil {
			t.Fatal(err)
		}
	}
	for i := active; i < total; i++ {
		rt := c.MustAddNode(fmt.Sprintf("idle%d", i))
		if err := rt.InstallSource(idleProg); err != nil {
			t.Fatal(err)
		}
	}
	c.At(90, func() error { c.Kill("act1"); return nil })
	c.At(210, func() error { c.Revive("act1"); return nil })
	return c
}

func runSparse(t *testing.T, total, active int, horizon int64) string {
	t.Helper()
	c := buildSparse(t, total, active)
	if err := c.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return c.Fingerprint()
}

// TestSparseFingerprintAtScale is the determinism-at-scale check from
// the scale-harness issue: a 5k-node cluster where only 32 nodes carry
// traffic must produce bit-identical journals and table fingerprints
// on every run.
func TestSparseFingerprintAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("5k-node fingerprint runs are too slow under the race detector (smoke variant covers race)")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if first, again := runSparse(t, 5000, 32, 400), runSparse(t, 5000, 32, 400); first != again {
		t.Fatal("fingerprint diverged between two runs of the 5k-node sparse cluster")
	}
}

// TestSparseFingerprintSmoke is the race-gated variant: small enough
// to run under the race detector in make check, same shape (idle
// majority, faults mid-run).
func TestSparseFingerprintSmoke(t *testing.T) {
	first := runSparse(t, 300, 16, 300)
	if again := runSparse(t, 300, 16, 300); first != again {
		t.Fatal("fingerprint diverged between two runs of the sparse smoke cluster")
	}
	if !strings.Contains(first, "journal") {
		t.Fatal("fingerprint recorded no journal events; test is vacuous")
	}
}

// TestIdleNodesDoNotStep pins the wake-index contract directly: after
// a sparse run, idle nodes have taken zero runtime steps — the
// scheduler never visited them at all.
func TestIdleNodesDoNotStep(t *testing.T) {
	c := buildSparse(t, 200, 8)
	if err := c.Run(300); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 200; i++ {
		if n := c.Node(fmt.Sprintf("idle%d", i)).StepCount(); n != 0 {
			t.Fatalf("idle%d stepped %d times; idle nodes must cost nothing", i, n)
		}
	}
	if c.Node("act0").StepCount() == 0 {
		t.Fatal("active node never stepped; test is vacuous")
	}
}

// TestStepDispatchAllocGuard pins the scheduler's dispatch overhead:
// once scratch has reached its high-water mark, stepping a cluster
// allocates only what the runtimes themselves allocate — the dispatch
// path (event pop, wake pop, active-set sort, inbox handoff, wake
// refresh) contributes nothing. The budget covers one runtime step's
// internal allocations (delta maps) with slack; a reintroduced
// per-step map or slice in the scheduler shows up as a step change.
func TestStepDispatchAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	build := func(idle int) *Cluster {
		c := NewCluster(WithClusterSeed(9))
		rt := c.MustAddNode("beat")
		if err := rt.InstallSource(`
			periodic tick interval 10;
			table seen(K: int, T: int) keys(0);
			ra seen(0, T) :- tick(_, T);
		`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < idle; i++ {
			rt := c.MustAddNode(fmt.Sprintf("idle%d", i))
			if err := rt.InstallSource(idleProg); err != nil {
				t.Fatal(err)
			}
		}
		// Warm scratch and plan caches.
		for i := 0; i < 5; i++ {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	measure := func(c *Cluster) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(build(8))
	big := measure(build(2048))
	const budget = 48
	if small > budget || big > budget {
		t.Fatalf("steady-state cluster step allocates %.1f (8 idle) / %.1f (2048 idle), budget %d — the dispatch path regained per-step allocations", small, big, budget)
	}
	// The defining property of the event-driven core: idle population
	// must not change the per-step cost at all.
	if big > small {
		t.Fatalf("per-step allocations grew with idle nodes (%.1f -> %.1f); idle nodes are being visited", small, big)
	}
}

// replyService answers every locally-seen tuple with a cross-node
// message, modeling data-plane glue like a datanode's read path.
type replyService struct {
	to      string
	replies int
}

func (s *replyService) Tables() []string { return []string{"seen"} }
func (s *replyService) OnEvent(_ Env, ev overlog.WatchEvent) []Injection {
	s.replies++
	return []Injection{{
		To:    s.to,
		Tuple: overlog.NewTuple("ping", overlog.Addr(s.to), overlog.Addr("svc"), overlog.Int(ev.Tuple.Vals[0].AsInt())),
	}}
}

// TestServiceInjectionRespectsPartition is the regression test for the
// fault-bypass fix: service OnEvent injections used to call Inject
// directly, skipping the partition check in send, so a partitioned
// node's service replies kept flowing. Now a chaos-style schedule that
// partitions the serving node must stop its replies.
func TestServiceInjectionRespectsPartition(t *testing.T) {
	run := func(partition bool) (delivered int64, dropped int64) {
		c := NewCluster(WithClusterSeed(5))
		a := c.MustAddNode("a") // the serving node (e.g. a datanode)
		b := c.MustAddNode("b") // the client awaiting service replies
		for _, rt := range []*overlog.Runtime{a, b} {
			if err := rt.InstallSource(pingPong); err != nil {
				t.Fatal(err)
			}
		}
		svc := &replyService{to: "b"}
		if err := c.AttachService("a", svc); err != nil {
			t.Fatal(err)
		}
		if partition {
			c.At(0, func() error { c.Partition("a", "b"); return nil })
		}
		// b pings a; a's rules derive seen via pong... instead drive
		// a's seen directly: pong to a inserts seen, waking the service.
		c.Inject("a", overlog.NewTuple("pong", overlog.Addr("a"), overlog.Addr("b"), overlog.Int(1)), 1)
		if err := c.Run(200); err != nil {
			t.Fatal(err)
		}
		if svc.replies == 0 {
			t.Fatal("service never fired; test is vacuous")
		}
		return c.Delivered["ping"], c.Dropped
	}
	okDelivered, _ := run(false)
	if okDelivered == 0 {
		t.Fatal("unpartitioned service reply was not delivered")
	}
	partDelivered, partDropped := run(true)
	if partDelivered != 0 {
		t.Fatalf("partitioned node's service reply leaked through (%d delivered)", partDelivered)
	}
	if partDropped == 0 {
		t.Fatal("expected drop accounting for the partitioned service reply")
	}
}
