package paxos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// testGroup builds n replicas on a fresh cluster.
func testGroup(t *testing.T, n int, opts ...sim.Option) (*sim.Cluster, []string) {
	t.Helper()
	c := sim.NewCluster(opts...)
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("px:%d", i))
	}
	cfg := DefaultConfig()
	for _, m := range members {
		rt := c.MustAddNode(m)
		if err := Install(rt, m, members, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return c, members
}

// submit proposes a command to a specific replica.
func submit(c *sim.Cluster, to, reqID string, payload string) {
	cmd := overlog.List(overlog.Str(reqID), overlog.Str(payload))
	c.Inject(to, overlog.NewTuple("paxos_request",
		overlog.Addr(to), overlog.Str(reqID), cmd), 0)
}

// decidedCount returns the size of a replica's decided log.
func decidedCount(c *sim.Cluster, node string) int {
	return c.Node(node).Table("decided").Len()
}

// logsAgree verifies the fundamental safety property: no two replicas
// decide different commands for the same slot.
func logsAgree(t *testing.T, c *sim.Cluster, members []string) {
	t.Helper()
	bysSlot := map[int64]string{}
	for _, m := range members {
		for slot, cmd := range Decided(c.Node(m)) {
			rendered := overlog.List(cmd...).String()
			if prev, ok := bysSlot[slot]; ok && prev != rendered {
				t.Fatalf("safety violation at slot %d: %s vs %s", slot, prev, rendered)
			}
			bysSlot[slot] = rendered
		}
	}
}

func TestSingleDecision(t *testing.T) {
	c, members := testGroup(t, 3)
	// Let the initial leader heartbeat once.
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	submit(c, members[0], "r1", "hello")
	met, err := c.RunUntil(func() bool {
		for _, m := range members {
			if decidedCount(c, m) < 1 {
				return false
			}
		}
		return true
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		t.Fatalf("not decided everywhere: %v", []int{
			decidedCount(c, members[0]), decidedCount(c, members[1]), decidedCount(c, members[2])})
	}
	logsAgree(t, c, members)
}

func TestManyDecisionsInOrder(t *testing.T) {
	c, members := testGroup(t, 3)
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		submit(c, members[0], fmt.Sprintf("r%03d", i), fmt.Sprintf("cmd%d", i))
	}
	met, err := c.RunUntil(func() bool { return decidedCount(c, members[0]) >= n }, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		t.Fatalf("only %d decided", decidedCount(c, members[0]))
	}
	logsAgree(t, c, members)
	// Slots are consecutive from 0.
	log := Decided(c.Node(members[0]))
	for s := int64(0); s < n; s++ {
		if _, ok := log[s]; !ok {
			t.Fatalf("gap at slot %d", s)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c, members := testGroup(t, 3)
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	submit(c, members[0], "before", "x")
	met, err := c.RunUntil(func() bool { return decidedCount(c, members[1]) >= 1 }, 10_000)
	if err != nil || !met {
		t.Fatalf("initial decision: %v %v", met, err)
	}
	// Kill the leader; a backup should take over.
	c.Kill(members[0])
	met, err = c.RunUntil(func() bool {
		return IsLeader(c.Node(members[1])) || IsLeader(c.Node(members[2]))
	}, 60_000)
	if err != nil || !met {
		t.Fatalf("no new leader elected: %v %v", met, err)
	}
	// The new leader accepts and decides new commands.
	var leader string
	for _, m := range members[1:] {
		if IsLeader(c.Node(m)) {
			leader = m
		}
	}
	submit(c, leader, "zafter", "y")
	met, err = c.RunUntil(func() bool {
		return decidedCount(c, members[1]) >= 2 && decidedCount(c, members[2]) >= 2
	}, 60_000)
	if err != nil || !met {
		t.Fatalf("post-failover decision: %v %v (counts %d %d)", met, err,
			decidedCount(c, members[1]), decidedCount(c, members[2]))
	}
	logsAgree(t, c, members[1:])
}

func TestFailoverPreservesEarlierDecisions(t *testing.T) {
	c, members := testGroup(t, 5)
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		submit(c, members[0], fmt.Sprintf("a%d", i), "v")
	}
	met, err := c.RunUntil(func() bool { return decidedCount(c, members[4]) >= 5 }, 60_000)
	if err != nil || !met {
		t.Fatalf("pre-failover decisions: %v %v", met, err)
	}
	before := Decided(c.Node(members[4]))
	c.Kill(members[0])
	met, err = c.RunUntil(func() bool {
		for _, m := range members[1:] {
			if IsLeader(c.Node(m)) {
				return true
			}
		}
		return false
	}, 60_000)
	if err != nil || !met {
		t.Fatal("no new leader")
	}
	// Every previously decided slot is still decided identically.
	for _, m := range members[1:] {
		after := Decided(c.Node(m))
		for slot, cmd := range before {
			got, ok := after[slot]
			if !ok {
				continue // this replica may not have learned it yet
			}
			if overlog.List(got...).String() != overlog.List(cmd...).String() {
				t.Fatalf("slot %d changed after failover", slot)
			}
		}
	}
	logsAgree(t, c, members[1:])
}

func TestDecisionsUnderMessageLoss(t *testing.T) {
	c, members := testGroup(t, 3,
		sim.WithClusterSeed(7), sim.WithDropRate(0.10),
		sim.WithLatency(sim.UniformLatency(1, 15)))
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		submit(c, members[0], fmt.Sprintf("r%02d", i), "v")
	}
	met, err := c.RunUntil(func() bool { return decidedCount(c, members[0]) >= n }, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		t.Fatalf("with loss: only %d/%d decided", decidedCount(c, members[0]), n)
	}
	logsAgree(t, c, members)
}

// TestSafetyUnderRandomFailures moved to churn_chaos_test.go (package
// paxos_test), where the leader churn is expressed as a replayable
// chaos.Schedule instead of imperative kill/revive choreography.

// TestRevivedOldLeaderAbdicates: the original leader comes back after a
// successor was elected and new commands were decided; ballot
// protection must keep it from overwriting anything, and its log must
// converge with the group's.
func TestRevivedOldLeaderAbdicates(t *testing.T) {
	c, members := testGroup(t, 3)
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	submit(c, members[0], "a-before", "v")
	met, err := c.RunUntil(func() bool { return decidedCount(c, members[1]) >= 1 }, 10_000)
	if err != nil || !met {
		t.Fatalf("initial decision: %v %v", met, err)
	}
	c.Kill(members[0])
	met, err = c.RunUntil(func() bool {
		return IsLeader(c.Node(members[1])) || IsLeader(c.Node(members[2]))
	}, 60_000)
	if err != nil || !met {
		t.Fatal("no successor elected")
	}
	var successor string
	for _, m := range members[1:] {
		if IsLeader(c.Node(m)) {
			successor = m
		}
	}
	submit(c, successor, "b-during", "v")
	met, err = c.RunUntil(func() bool { return decidedCount(c, successor) >= 2 }, 60_000)
	if err != nil || !met {
		t.Fatal("successor could not decide")
	}

	// The old leader returns, still believing it leads.
	c.Revive(members[0])
	if !IsLeader(c.Node(members[0])) {
		t.Fatal("precondition: revived node should still think it leads")
	}
	// It tries to push a command under its stale ballot; acceptors with
	// higher promises reject, and anti-entropy teaches it the truth.
	submit(c, members[0], "c-stale", "v")
	if err := c.Run(c.Now() + 20_000); err != nil {
		t.Fatal(err)
	}
	logsAgree(t, c, members)
	// The revived node learned the successor's decisions.
	if decidedCount(c, members[0]) < 2 {
		t.Fatalf("revived node log too short: %d", decidedCount(c, members[0]))
	}
}

// TestFiveReplicasSurviveTwoFailures: with n=5, quorum=3; killing two
// replicas (including the leader) must still allow progress.
func TestFiveReplicasSurviveTwoFailures(t *testing.T) {
	c, members := testGroup(t, 5)
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	submit(c, members[0], "a", "v")
	met, err := c.RunUntil(func() bool { return decidedCount(c, members[4]) >= 1 }, 10_000)
	if err != nil || !met {
		t.Fatal("initial decision")
	}
	c.Kill(members[0])
	c.Kill(members[3])
	met, err = c.RunUntil(func() bool {
		for _, m := range []string{members[1], members[2], members[4]} {
			if IsLeader(c.Node(m)) {
				return true
			}
		}
		return false
	}, 120_000)
	if err != nil || !met {
		t.Fatal("no leader among the three survivors")
	}
	var leader string
	for _, m := range []string{members[1], members[2], members[4]} {
		if IsLeader(c.Node(m)) {
			leader = m
		}
	}
	submit(c, leader, "b", "v")
	met, err = c.RunUntil(func() bool {
		return decidedCount(c, members[1]) >= 2 &&
			decidedCount(c, members[2]) >= 2 &&
			decidedCount(c, members[4]) >= 2
	}, 120_000)
	if err != nil || !met {
		t.Fatalf("no progress with 3/5 alive: counts %d %d %d",
			decidedCount(c, members[1]), decidedCount(c, members[2]),
			decidedCount(c, members[4]))
	}
	logsAgree(t, c, []string{members[1], members[2], members[4]})
}

// TestCleanupProbesLogByRequestID pins the access path of the two
// rules that clear a decided command's queue entries: when a pending or
// inflight tuple arrives, decided is probed through an index keyed by
// the request id inside Cmd — one index shared by both rules — instead
// of being scanned. Scanning it made every put cost O(log length).
func TestCleanupProbesLogByRequestID(t *testing.T) {
	rt := overlog.NewRuntime("px:0")
	if err := Install(rt, "px:0", []string{"px:0", "px:1", "px:2"}, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{"cp1", "cp2"} {
		plan, err := rt.Explain(rule)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"2 of 2 scans", "scan  decided            bound=[] bind=[1] filter=[]  via computed-key index [tostr(nth($1, 0))]"} {
			if !strings.Contains(plan, want) {
				t.Errorf("Explain(%s) lacks %q:\n%s", rule, want, plan)
			}
		}
	}
}

// TestSameStepPreparesKeepTheLargerPromise delivers two prepares to one
// acceptor in a single step, in both orders. promised and cur_ballot
// are max columns, so both end at the larger ballot whichever prepare
// is applied last, and an accept at the smaller ballot, which the
// acceptor promised to refuse, is neither recorded nor acknowledged.
// When "keep the larger ballot" was a guard atom in each writing rule,
// both writes passed the guard against the row stored before the step
// and the one applied last won: the order 200, 101 left promised at
// 101 and the acceptor acked ballot 101.
func TestSameStepPreparesKeepTheLargerPromise(t *testing.T) {
	members := []string{"px:0", "px:1", "px:2"}
	for _, order := range [][2]int64{{200, 101}, {101, 200}} {
		rt := overlog.NewRuntime("px:2")
		if err := Install(rt, "px:2", members, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		prepare := func(from string, b int64) overlog.Tuple {
			return overlog.NewTuple("prepare", overlog.Addr("px:2"), overlog.Addr(from), overlog.Int(b))
		}
		steps := [][]overlog.Tuple{
			{prepare("px:0", order[0]), prepare("px:1", order[1])},
			nil,
			{overlog.NewTuple("accept_msg", overlog.Addr("px:2"), overlog.Addr("px:1"), overlog.Int(101),
				overlog.Int(0), overlog.List(overlog.Str("r1"), overlog.Addr("c:0")))},
			nil,
			nil,
		}
		for i, in := range steps {
			out, err := rt.Step(int64(10+i), in)
			if err != nil {
				t.Fatal(err)
			}
			for _, env := range out {
				if env.Tuple.Table == "accept_ack" {
					t.Errorf("order %v: acked %v after promising 200", order, env.Tuple)
				}
			}
			if i != 1 {
				continue
			}
			for _, table := range []string{"promised", "cur_ballot"} {
				var got int64
				rt.Table(table).Scan(func(tp overlog.Tuple) bool { got = tp.Vals[1].AsInt(); return true })
				if got != 200 {
					t.Errorf("order %v: %s = %d after the prepares, want 200", order, table, got)
				}
			}
		}
		if n := rt.Table("accepted").Len(); n != 0 {
			t.Errorf("order %v: accepted %d values at ballot 101 after promising 200", order, n)
		}
	}
}
