package live

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/rtfs"
	"repro/internal/telemetry"
)

// TestClientRotatesPastUnreachableReplica: the replicated client's
// first replica is partitioned from it and its second is a follower,
// which stays silent, so the op is answered by the leader on the third
// try. The send error costs a back-off, not a retry window; every fsreq
// of the op carries one id; the op is decided in one slot.
func TestClientRotatesPastUnreachableReplica(t *testing.T) {
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	cfg, pcfg := boomfs.DefaultConfig(), paxos.DefaultConfig()
	var names, addrs []string
	var rts []*overlog.Runtime
	for i := 0; i < 3; i++ {
		rt, err := lc.AddNode(fmt.Sprintf("fsm:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		names, addrs, rts = append(names, fmt.Sprintf("fsm:%d", i)), append(addrs, rt.LocalAddr()), append(rts, rt)
	}
	for i, rt := range rts {
		if err := boomfs.InstallReplicatedMaster(rt, addrs[i], addrs, cfg, pcfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Run(3 * pcfg.ElectTimeout); err != nil {
		t.Fatal(err)
	}
	leader, n := -1, 0
	for i, name := range names {
		lc.RunOn(name, func(rt *overlog.Runtime) {
			if paxos.IsLeader(rt) {
				leader, n = i, n+1
			}
		})
	}
	if n != 1 {
		t.Fatalf("%d leaders", n)
	}
	follower, cut := (leader+1)%3, (leader+2)%3
	const retry = 500 * time.Millisecond
	cl, err := joinClient(lc, func(addr string) (*rtfs.Client, error) {
		return rtfs.NewReplicatedClient(addr, []string{addrs[cut], addrs[follower], addrs[leader]}, 10*time.Second, retry)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lc.Faults().Partition(cl.Addr, addrs[cut])

	start := lc.Now()
	if err := cl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if d := lc.Now() - start; d < retry.Milliseconds() || d >= 2*retry.Milliseconds() {
		t.Fatalf("op took %d ms; want one %v window on the follower and none on the cut replica", d, retry)
	}
	var id string
	sends := map[string]string{} // span kind + destination -> trace id
	for _, sp := range cl.Tracer.Spans() {
		switch {
		case sp.Kind == "op":
			id = sp.TraceID
		case sp.Op == "fsreq":
			sends[sp.Kind+" "+sp.Detail] = sp.TraceID
		}
	}
	if len(sends) != 3 {
		t.Fatalf("want a drop and two sends of fsreq, got %v", sends)
	}
	for what, tid := range sends {
		if tid != id {
			t.Fatalf("%s carries id %q, the op's is %q", what, tid, id)
		}
	}
	if err := lc.Run(lc.Now() + 3*pcfg.SyncMS); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		lc.RunOn(name, func(rt *overlog.Runtime) {
			slots := 0
			for _, cmd := range paxos.Decided(rt) {
				if cmd[0].AsString() == id {
					slots++
				}
			}
			if slots != 1 {
				t.Errorf("%s: %s decided in %d slots, want 1", name, id, slots)
			}
		})
	}
}

// TestClientSendErrorFailsFast: a single-master client with no retry
// budget whose send fails under a partition returns that error at
// once, not after its timeout, and the op does not happen.
func TestClientSendErrorFailsFast(t *testing.T) {
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	rt, err := lc.AddNode("fsm:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		t.Fatal(err)
	}
	if _, err := boomfs.NewMasterOnRuntime(rt, boomfs.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	master := rt.LocalAddr()
	const timeout = 10 * time.Second
	cl, err := joinClient(lc, func(addr string) (*rtfs.Client, error) { return rtfs.NewClient(addr, master, timeout) })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := lc.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}

	lc.Faults().Partition(cl.Addr, master)
	start := lc.Now()
	err = cl.Mkdir("/b")
	if err == nil || errors.Is(err, boomfs.ErrTimeout) {
		t.Fatalf("partitioned mkdir: %v, want the send error", err)
	}
	if d := lc.Now() - start; d >= timeout.Milliseconds()/10 {
		t.Fatalf("send error took %d ms to surface (timeout %v)", d, timeout)
	}
	lc.Faults().Heal(cl.Addr, master)
	if err := cl.Mkdir("/b"); err != nil {
		t.Fatalf("mkdir after heal: %v", err)
	}
}
