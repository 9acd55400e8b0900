package live

import (
	"errors"
	"fmt"
	"net"
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
	for _, sp := range cl.Tracer().Spans() {
		switch {
		case sp.Node != cl.Addr:
		case sp.Kind == "op":
			id = sp.TraceID
		case sp.Op == "fsreq":
			sends[sp.Kind+" "+sp.Detail] = sp.TraceID
		}
	}
	// The client records into the cluster's ring: three sends of fsreq,
	// one a drop's parent (the cut replica's).
	if len(sends) != 4 {
		t.Fatalf("want three sends of fsreq and a drop, got %v", sends)
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

// plainMaster adds one unreplicated FS master, fsm:0, to lc and
// returns its address.
func plainMaster(t *testing.T, lc *Cluster) string {
	t.Helper()
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
	return rt.LocalAddr()
}

// failsFast runs a mkdir that must fail with an error other than a
// timeout, in under a tenth of the client's timeout on the cluster's
// clock.
func failsFast(t *testing.T, lc *Cluster, cl *rtfs.Client, timeout time.Duration, what string) {
	t.Helper()
	start := lc.Now()
	err := cl.Mkdir("/b")
	if err == nil || errors.Is(err, boomfs.ErrTimeout) {
		t.Fatalf("%s: mkdir returned %v, want the send error", what, err)
	}
	if d := lc.Now() - start; d >= timeout.Milliseconds()/10 {
		t.Fatalf("%s: the error took %d ms to surface (timeout %v)", what, d, timeout)
	}
}

// TestClientSendErrorFailsFast: a single-master client with no retry
// budget whose send fails under a partition returns that error at
// once, not after its timeout, and the op does not happen.
func TestClientSendErrorFailsFast(t *testing.T) {
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	master := plainMaster(t, lc)
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
	failsFast(t, lc, cl, timeout, "partitioned")
	lc.Faults().Heal(cl.Addr, master)
	if err := cl.Mkdir("/b"); err != nil {
		t.Fatalf("mkdir after heal: %v", err)
	}
}

// TestClientKilledMasterFailsFast: a single-master client whose master
// is down refuses its dial, and the op returns that error at once
// instead of waiting out its timeout.
func TestClientKilledMasterFailsFast(t *testing.T) {
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	master := plainMaster(t, lc)
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
	lc.Kill("fsm:0")
	failsFast(t, lc, cl, timeout, "master killed")
}

// TestClientOpBeforeBoot: an op against a master that has not booted
// yet fails at once, as one against a killed master does. Nothing
// listens at the master's address before its first boot, so the
// client's dial is refused; no frame waits on a connection nobody
// reads, which would stop the cluster's clock. The address stays
// reserved meanwhile: no other listener can take it.
func TestClientOpBeforeBoot(t *testing.T) {
	lc := NewCluster(1, telemetry.NewRegistry())
	defer lc.Close()
	master := plainMaster(t, lc)
	const timeout = time.Second
	cl, err := joinClient(lc, func(addr string) (*rtfs.Client, error) {
		return rtfs.NewClient(addr, master, timeout)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	failsFast(t, lc, cl, timeout, "before boot")
	if ln, err := net.Listen("tcp", master); err == nil {
		ln.Close()
		t.Fatal("the unbooted master's address was free to another listener")
	}
}
