package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/rsm"
	"repro/internal/sim"
)

func setup(t *testing.T, n int) (*sim.Cluster, *Group, *Client) {
	t.Helper()
	c := sim.NewCluster()
	g, err := NewGroup(c, "kv", n, paxos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(c, "client:0", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	return c, g, cl
}

func TestPutGetDelete(t *testing.T) {
	_, _, cl := setup(t, 3)
	if err := cl.Put("color", "blue"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("color")
	if err != nil || !ok || v != "blue" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := cl.Put("color", "red"); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = cl.Get("color")
	if !ok || v != "red" {
		t.Fatalf("overwrite: %q %v", v, ok)
	}
	if err := cl.Delete("color"); err != nil {
		t.Fatal(err)
	}
	_, ok, err = cl.Get("color")
	if err != nil || ok {
		t.Fatalf("get after delete: %v %v", ok, err)
	}
	_, ok, _ = cl.Get("never-set")
	if ok {
		t.Fatal("phantom key")
	}
}

func TestReplicasConverge(t *testing.T) {
	c, g, cl := setup(t, 3)
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Delete("k03"); err != nil {
		t.Fatal(err)
	}
	// Anti-entropy settles lagging learners.
	if err := c.Run(c.Now() + 5_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for k := 0; k < 10; k++ {
			key := fmt.Sprintf("k%02d", k)
			v, ok := g.ReplicaValue(i, key)
			if key == "k03" {
				if ok {
					t.Errorf("replica %d still has %s", i, key)
				}
				continue
			}
			if !ok || v != fmt.Sprintf("v%d", k) {
				t.Errorf("replica %d: %s=%q ok=%v", i, key, v, ok)
			}
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c, g, cl := setup(t, 3)
	if err := cl.Put("before", "1"); err != nil {
		t.Fatal(err)
	}
	c.Kill(g.Replicas[0])
	// The next write retries down the replica list; the elected backup
	// accepts it.
	if err := cl.Put("after", "2"); err != nil {
		t.Fatalf("put after leader kill: %v", err)
	}
	v, ok, err := cl.Get("before")
	if err != nil || !ok || v != "1" {
		t.Fatalf("pre-failover data lost: %q %v %v", v, ok, err)
	}
	v, ok, err = cl.Get("after")
	if err != nil || !ok || v != "2" {
		t.Fatalf("post-failover write missing: %q %v %v", v, ok, err)
	}
}

func TestSequentialConsistencyPerClient(t *testing.T) {
	// A single synchronous client must always read its own latest write.
	_, _, cl := setup(t, 3)
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("v%d", i)
		if err := cl.Put("x", want); err != nil {
			t.Fatal(err)
		}
		got, ok, err := cl.Get("x")
		if err != nil || !ok || got != want {
			t.Fatalf("iteration %d: read %q want %q (ok=%v err=%v)", i, got, want, ok, err)
		}
	}
}

// TestPutDeletePut: a key written again after its delete must stay.
// Before the apply cursor the delete rule joined each new kv row
// against every old decided "del", so the re-put was acknowledged and
// then deleted at the end of its own step, on every replica.
func TestPutDeletePut(t *testing.T) {
	c, g, cl := setup(t, 3)
	if err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get("k"); err != nil || !ok || v != "v2" {
		t.Fatalf("get after put/del/put: %q %v %v, want v2", v, ok, err)
	}
	if err := c.Run(c.Now() + 5_000); err != nil {
		t.Fatal(err)
	}
	for i := range g.Replicas {
		if v, ok := g.ReplicaValue(i, "k"); !ok || v != "v2" {
			t.Errorf("replica %d: k=%q ok=%v, want v2", i, v, ok)
		}
	}
}

// TestOutOfOrderLearnerAppliesInSlotOrder: a follower that learns slot
// 0 only after slots 1 and 2 (a dropped decide_msg, refilled by
// anti-entropy) must still end with what the log says — the later
// put, and the key the del removed still gone — not with whatever
// arrived last.
func TestOutOfOrderLearnerAppliesInSlotOrder(t *testing.T) {
	const self = "kv:1"
	rt := overlog.NewRuntime(self)
	if err := rsm.Install(rt, self, []string{"kv:0", self, "kv:2"}, paxos.DefaultConfig(), rules); err != nil {
		t.Fatal(err)
	}
	decide := func(slot int64, op, key, val string) overlog.Tuple {
		return overlog.NewTuple("decide_msg", overlog.Addr(self), overlog.Int(slot),
			overlog.List(overlog.Str(fmt.Sprintf("req-%d", slot)), overlog.Addr("client:0"),
				overlog.Str(op), overlog.Str(key), overlog.Str(val)))
	}
	now := int64(0)
	deliver := func(msgs ...overlog.Tuple) {
		t.Helper()
		for i := 0; i < 6; i++ { // the message, then the deferred writes it sets off
			now++
			if _, err := rt.Step(now, msgs); err != nil {
				t.Fatal(err)
			}
			msgs = nil
		}
	}
	deliver(decide(1, "put", "a", "new"), decide(2, "del", "b", ""))
	if n := rt.Table("kv").Len(); n != 0 {
		t.Fatalf("slots 1 and 2 applied before slot 0 was known: %s", rt.Table("kv").Dump())
	}
	deliver(decide(0, "put", "a", "old"))
	deliver(decide(3, "put", "b", "late"), decide(4, "del", "b", ""))
	if got, want := rt.Table("kv").Dump(), `kv("a", "new")`; got != want {
		t.Fatalf("kv = %s, want %s", got, want)
	}
}

// TestRetryAfterLostAckIsExactlyOnce replays a history a fresh id per
// attempt made possible: A's put k=a commits but every response to A is
// lost; a reader then sees a, and B's put k=b is acknowledged. A's
// retry, still inside the same Put, commits the command again. Applied
// again it would leave every replica at a, a history no sequential
// order explains (the reader saw a before b was written, so a cannot
// also be the last write). Under one id the replay dedup acknowledges
// the retry without writing, and b stays.
func TestRetryAfterLostAckIsExactlyOnce(t *testing.T) {
	c, g, _ := setup(t, 3)
	newClient := func(addr string) *Client {
		cl, err := NewClient(c, addr, g)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	a, b, reader := newClient("client:a"), newClient("client:b"), newClient("client:r")
	for _, r := range g.Replicas {
		c.Partition(a.Addr, r)
	}
	// While A's first attempt waits out its RetryMS, the others act
	// through their own synchronous calls, which this timer runs inside
	// A's Put on the same cluster.
	c.At(c.Now()+a.RetryMS/2, func() error {
		if v, ok, err := reader.Get("k"); err != nil || !ok || v != "a" {
			return fmt.Errorf("reader: k=%q ok=%v err=%v, want a", v, ok, err)
		}
		if err := b.Put("k", "b"); err != nil {
			return fmt.Errorf("B's put: %v", err)
		}
		for _, r := range g.Replicas {
			c.Heal(a.Addr, r)
		}
		return nil
	})
	start := c.Now()
	if err := a.Put("k", "a"); err != nil {
		t.Fatalf("A's put: %v", err)
	}
	if d := c.Now() - start; d > a.TimeoutMS {
		t.Fatalf("A's put took %dms, over its %dms budget", d, a.TimeoutMS)
	}
	if err := c.Run(c.Now() + 5_000); err != nil {
		t.Fatal(err)
	}
	for i := range g.Replicas {
		if v, ok := g.ReplicaValue(i, "k"); !ok || v != "b" {
			t.Errorf("replica %d: k=%q ok=%v, want b", i, v, ok)
		}
	}
}

// TestPutWithoutRetryBudget: with RetryMS 0 each replica gets the whole
// timeout in one pass, so a put completes; an attempt bounded by now+0
// would re-send at one virtual instant forever.
func TestPutWithoutRetryBudget(t *testing.T) {
	c, g, cl := setup(t, 3)
	cl.RetryMS = 0
	start := c.Now()
	if err := cl.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if d := c.Now() - start; d >= cl.TimeoutMS {
		t.Fatalf("put took %d ms", d)
	}
	if v, ok := g.ReplicaValue(cl.calls.Preferred(), "k"); !ok || v != "v" {
		t.Fatalf("replica %d: %q %v", cl.calls.Preferred(), v, ok)
	}
}
