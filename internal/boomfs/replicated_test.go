package boomfs

import (
	"fmt"
	"testing"

	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
)

func testReplicatedFS(t *testing.T, replicas, dns int) (*sim.Cluster, *ReplicatedMaster, []*DataNode, *Client) {
	t.Helper()
	cfg := smallConfig()
	cfg.OpTimeoutMS = 60_000
	pcfg := paxos.DefaultConfig()
	c := sim.NewCluster()
	rm, err := NewReplicatedMaster(c, "master", replicas, cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*DataNode
	for i := 0; i < dns; i++ {
		dn, err := NewReplicatedDataNode(c, fmt.Sprintf("dn:%d", i), rm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, dn)
	}
	cl, err := NewReplicatedClient(c, "client:0", cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	cl.RetryMS = 4000
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		t.Fatal(err)
	}
	return c, rm, nodes, cl
}

func TestReplicatedBasicOps(t *testing.T) {
	_, rm, _, cl := testReplicatedFS(t, 3, 3)
	if err := cl.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/a/f"); err != nil {
		t.Fatal(err)
	}
	names, err := cl.Ls("/a")
	if err != nil || len(names) != 1 || names[0] != "f" {
		t.Fatalf("ls: %v %v", names, err)
	}
	if rm.DecidedCount() != 2 {
		t.Fatalf("decided: %d", rm.DecidedCount())
	}
}

// TestReplicasConverge: after a batch of writes, every replica's
// metadata catalog is identical (the state machine actually replicated).
func TestReplicasConverge(t *testing.T) {
	c, rm, _, cl := testReplicatedFS(t, 3, 3)
	if err := cl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cl.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Rm("/d/f3"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mv("/d/f4", "/d/g4"); err != nil {
		t.Fatal(err)
	}
	// Allow decided-log anti-entropy to settle.
	if err := c.Run(c.Now() + 5_000); err != nil {
		t.Fatal(err)
	}
	want := rm.Master(0).rt.Table("fqpath").Dump()
	for i := 1; i < 3; i++ {
		got := rm.Master(i).rt.Table("fqpath").Dump()
		if got != want {
			t.Fatalf("replica %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
	if want == "" {
		t.Fatal("empty catalog")
	}
}

// TestMasterFailover is the paper's availability experiment in
// miniature: kill the primary mid-workload; clients retry and the
// backup (elected by the Overlog Paxos rules) continues serving
// metadata writes.
func TestMasterFailover(t *testing.T) {
	c, rm, _, cl := testReplicatedFS(t, 3, 3)
	if err := cl.Mkdir("/pre"); err != nil {
		t.Fatal(err)
	}
	c.Kill(rm.Replicas[0])
	// The very next write must eventually succeed via the new leader.
	if err := cl.Mkdir("/post"); err != nil {
		t.Fatalf("write after primary kill: %v", err)
	}
	if rm.LeaderIndex() <= 0 {
		t.Fatalf("leader index: %d", rm.LeaderIndex())
	}
	// Both survivors know both directories.
	for i := 1; i < 3; i++ {
		m := rm.Master(i)
		if _, ok := m.ResolvePath("/post"); !ok {
			// Allow anti-entropy to catch the lagging replica up.
			if err := c.Run(c.Now() + 5_000); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.ResolvePath("/post"); !ok {
				t.Fatalf("replica %d missing /post", i)
			}
		}
		if _, ok := m.ResolvePath("/pre"); !ok {
			t.Fatalf("replica %d missing /pre", i)
		}
	}
}

// TestClientSticksToNewLeaderAfterFailover: the first op after a
// primary kill pays the RetryMS probe against the dead master before
// failing over, but once a backup answers, the client's preference
// moves — subsequent ops go straight to the new leader instead of
// re-probing the corpse every time.
func TestClientSticksToNewLeaderAfterFailover(t *testing.T) {
	c, rm, _, cl := testReplicatedFS(t, 3, 3)
	if err := cl.Mkdir("/pre"); err != nil {
		t.Fatal(err)
	}
	if cl.calls.Preferred() != 0 {
		t.Fatalf("precondition: preferred=%d, want the primary", cl.calls.Preferred())
	}
	c.Kill(rm.Replicas[0])

	// The failover op eats at least one full RetryMS window probing the
	// dead primary before a backup answers.
	start := c.Now()
	if err := cl.Mkdir("/post"); err != nil {
		t.Fatalf("write after primary kill: %v", err)
	}
	failoverMS := c.Now() - start
	// The probe window can close a few events shy of RetryMS, so compare
	// against most of it rather than the exact figure.
	if failoverMS < cl.RetryMS*3/4 {
		t.Fatalf("failover op took %dms; expected roughly a %dms probe of the dead primary",
			failoverMS, cl.RetryMS)
	}
	if cl.calls.Preferred() == 0 {
		t.Fatal("client preference still points at the dead primary")
	}
	newPref := cl.calls.Preferred()

	// Steady state: ops complete well inside one retry window, because
	// no attempt goes to the dead primary anymore.
	for i := 0; i < 3; i++ {
		start = c.Now()
		if err := cl.Mkdir(fmt.Sprintf("/steady%d", i)); err != nil {
			t.Fatal(err)
		}
		if d := c.Now() - start; d >= cl.RetryMS {
			t.Fatalf("post-failover op %d took %dms — still probing the dead primary", i, d)
		}
		if cl.calls.Preferred() != newPref {
			t.Fatalf("preference drifted to %d mid-steady-state", cl.calls.Preferred())
		}
	}
}

func TestReplicatedWriteReadFile(t *testing.T) {
	_, _, _, cl := testReplicatedFS(t, 3, 3)
	data := "replicated master, plain data path, chunky payload........"
	if err := cl.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/f")
	if err != nil || got != data {
		t.Fatalf("read: %q %v", got, err)
	}
}

func TestFailoverMidFileWrite(t *testing.T) {
	c, rm, _, cl := testReplicatedFS(t, 3, 4)
	data := "0123456789abcdef0123456789abcdef0123456789abcdef" // 3 chunks
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	// Write one chunk, kill the primary, keep writing.
	id, locs, err := cl.AddChunk("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteChunk(id, locs, data[:16]); err != nil {
		t.Fatal(err)
	}
	c.Kill(rm.Replicas[0])
	for off := 16; off < len(data); off += 16 {
		id, locs, err := cl.AddChunk("/f")
		if err != nil {
			t.Fatalf("addchunk after failover: %v", err)
		}
		if err := cl.WriteChunk(id, locs, data[off:off+16]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.ReadFile("/f")
	if err != nil || got != data {
		t.Fatalf("read after mid-write failover: %q %v", got, err)
	}
}

// TestGatewayDedupSameID: a retried request under the same id applies
// exactly once, no matter how many replicas proposed it or when. The
// leader's inflight table dedups concurrent duplicates while it lives,
// but it is soft state — after a crash-restart a retry of an
// already-committed id lands in a fresh Paxos slot, and only the
// durable seen_op replay guard keeps it from re-executing (a replayed
// duplicate mkdir answers "exists", which is exactly what a failover
// client saw whenever its first attempt committed but the response
// was delayed past the retry window).
func TestGatewayDedupSameID(t *testing.T) {
	c, rm, _, cl := testReplicatedFS(t, 3, 3)
	id := "client:0-dup"
	send := func(m string) {
		c.Inject(m, overlog.NewTuple("fsreq",
			overlog.Addr(m), overlog.Str(id), overlog.Addr(cl.Addr),
			overlog.Str("mkdir"), overlog.Str("/dup"), overlog.Str("")), 0)
	}
	// Concurrent duplicate to two replicas: the leader's inflight
	// admission covers this while its soft state survives.
	send(rm.Replicas[0])
	send(rm.Replicas[1])
	if err := c.Run(c.Now() + 20_000); err != nil {
		t.Fatal(err)
	}
	if resp, ok := cl.Poll(id); !ok || !resp.Ok {
		t.Fatalf("first attempt: resp %+v ok=%v", resp, ok)
	}
	// Crash-restart every replica: pending/inflight are lost, the
	// decided log, cursor, and seen_op restore from the checkpoint.
	for _, a := range rm.Replicas {
		if err := c.Restart(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(c.Now() + 20_000); err != nil {
		t.Fatal(err)
	}
	// Retry the same id at every replica, so whichever leads after the
	// restart gets it: with no inflight memory it proposes the id into a
	// fresh slot, and only seen_op stops the replay.
	for _, a := range rm.Replicas {
		send(a)
	}
	if err := c.Run(c.Now() + 20_000); err != nil {
		t.Fatal(err)
	}
	for i := range rm.Replicas {
		slots := 0
		for _, cmd := range paxos.Decided(rm.Master(i).rt) {
			if cmd[0].AsString() == id {
				slots++
			}
		}
		if slots < 2 {
			t.Fatalf("replica %d: %s decided in %d slots, want 2 (the retry must reach the log)", i, id, slots)
		}
	}
	// A replayed duplicate would answer ok=false "exists", overwriting
	// the client's keyed resp_log — it must still hold the ok answer.
	resp, ok := cl.Poll(id)
	if !ok {
		t.Fatal("no response for duplicated request")
	}
	if !resp.Ok {
		t.Fatalf("duplicate replayed: response %+v", resp)
	}
	names, err := cl.Ls("/")
	if err != nil || len(names) != 1 || names[0] != "dup" {
		t.Fatalf("ls /: %v %v", names, err)
	}
	for i := range rm.Replicas {
		rt := rm.Master(i).rt
		if n := rt.Table("seen_op").Len(); n != 1 {
			t.Fatalf("replica %d: seen_op has %d rows, want 1", i, n)
		}
	}
	// The write path still works after the dedup (later slots replay).
	if err := cl.Create("/dup/f"); err != nil {
		t.Fatalf("create after dedup: %v", err)
	}
}
