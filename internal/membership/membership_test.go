package membership

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// The tests run at a 100 ms probe interval: ticks every 50 ms, a 300 ms
// suspicion window, anti-entropy every 800 ms.
var cfg = Config{ProbeInterval: 100 * time.Millisecond}

// cluster starts a master and n datanodes that seed only the master, so
// the datanodes learn about each other from piggybacked views alone.
// Every node can crash-restart on its own address with a fresh unit.
func cluster(t *testing.T, n int) (*sim.Cluster, []string) {
	t.Helper()
	c := sim.NewCluster(sim.WithClusterSeed(1))
	addrs := []string{"m:0"}
	for i := 0; i < n; i++ {
		addrs = append(addrs, fmt.Sprintf("dn:%d", i))
	}
	nodeCfg := cfg
	nodeCfg.Seeds = []string{"m:0"}
	nodeCfg.SeedRoles = map[string]string{"m:0": "master"}
	for i, a := range addrs {
		role := "datanode"
		if i == 0 {
			role = "master"
		}
		if err := Install(c.MustAddNode(a), role, nodeCfg); err != nil {
			t.Fatal(err)
		}
		if err := c.SetSpec(a, func(fresh *overlog.Runtime) ([]sim.Service, error) {
			return nil, Install(fresh, role, nodeCfg)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c, addrs
}

// everyone reports whether every viewer holds target in state st.
func everyone(c *sim.Cluster, viewers []string, target string, st int64) bool {
	for _, v := range viewers {
		if row, ok := View(c.Node(v))[target]; !ok || row.State != st {
			return false
		}
	}
	return true
}

// within runs the cluster until cond holds, failing unless it does
// within boundMS of virtual time; it returns the time taken.
func within(t *testing.T, c *sim.Cluster, boundMS int64, desc string, cond func() bool) int64 {
	t.Helper()
	start := c.Now()
	ok, err := c.RunUntil(cond, start+boundMS)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%s: not within %d virtual ms", desc, boundMS)
	}
	return c.Now() - start
}

func converge(t *testing.T, c *sim.Cluster, addrs []string) {
	t.Helper()
	for _, a := range addrs {
		within(t, c, 1000, a+" never alive everywhere", func() bool { return everyone(c, addrs, a, Alive) })
	}
}

// TestGossipDetectsDeadNode: a master and two datanodes converge on a
// full view, then a datanode is killed. Every survivor must hold it dead
// within ProbeInterval × (members + 1) + the suspicion window: a pass of
// the round robin can take one probe per peer, the failed probe one
// more, and a suspicion three before it expires.
func TestGossipDetectsDeadNode(t *testing.T) {
	const bound = 100*(3+1) + 300
	if got := cfg.DetectionBoundMS(3); got != bound {
		t.Fatalf("DetectionBoundMS(3) = %d, want %d", got, bound)
	}
	c, addrs := cluster(t, 2)
	converge(t, c, addrs)
	c.Kill("dn:1")
	took := within(t, c, bound, "dn:1 not dead in every survivor's view", func() bool {
		return everyone(c, []string{"m:0", "dn:0"}, "dn:1", Dead)
	})
	t.Logf("dead everywhere %d virtual ms after the kill (bound %d)", took, bound)
}

// TestGossipPartitionSuspectsPeer: with two nodes there is no relay, so
// a partition makes each side declare the other dead; healing the link
// must resurrect both halves without a restart. Resurrection waits for
// an anti-entropy ping (every 8 probes) and then a refutation round
// trip and one more probe.
func TestGossipPartitionSuspectsPeer(t *testing.T) {
	const deadBound = 100*(2+1) + 300
	const healBound = 8*100 + 2*100
	c, addrs := cluster(t, 1)
	converge(t, c, addrs)
	c.Partition("m:0", "dn:0")
	within(t, c, deadBound, "the halves never declared each other dead", func() bool {
		return everyone(c, []string{"m:0"}, "dn:0", Dead) && everyone(c, []string{"dn:0"}, "m:0", Dead)
	})
	if err := c.Run(c.Now() + 250); err != nil {
		t.Fatal(err)
	}
	c.Heal("m:0", "dn:0")
	took := within(t, c, healBound, "the healed halves never resurrected each other", func() bool {
		return everyone(c, addrs, "dn:0", Alive) && everyone(c, addrs, "m:0", Alive)
	})
	t.Logf("both halves alive %d virtual ms after the heal (bound %d)", took, healBound)
}

// TestGossipRestartOnSameAddress is the case incarnations exist for: a
// datanode crash-restarts on its own address after the cluster has
// declared it dead. Its first tick stamps a fresh incarnation from the
// clock, and every survivor's record must go dead → alive with a
// strictly higher incarnation, within a round robin over the view.
func TestGossipRestartOnSameAddress(t *testing.T) {
	const bound = 100 * (4 + 1)
	c, addrs := cluster(t, 3)
	converge(t, c, addrs)
	c.Kill("dn:1")
	survivors := []string{"m:0", "dn:0", "dn:2"}
	within(t, c, cfg.DetectionBoundMS(len(addrs)), "dn:1 never dead", func() bool {
		return everyone(c, survivors, "dn:1", Dead)
	})
	corpse := map[string]int64{}
	for _, s := range survivors {
		corpse[s] = View(c.Node(s))["dn:1"].Inc
	}
	if err := c.Run(c.Now() + 1000); err != nil {
		t.Fatal(err)
	}
	if !everyone(c, survivors, "dn:1", Dead) {
		t.Fatal("dn:1 came back before its restart")
	}
	if err := c.Restart("dn:1"); err != nil {
		t.Fatal(err)
	}
	took := within(t, c, bound, "the restart never overturned the dead record", func() bool {
		return everyone(c, addrs, "dn:1", Alive)
	})
	for _, s := range survivors {
		if inc := View(c.Node(s))["dn:1"].Inc; inc <= corpse[s] {
			t.Errorf("%s: dn:1 alive at incarnation %d, not above its dead record's %d", s, inc, corpse[s])
		}
	}
	t.Logf("alive everywhere %d virtual ms after the restart (bound %d)", took, bound)
}
