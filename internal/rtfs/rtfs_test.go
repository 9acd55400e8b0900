package rtfs

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
)

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no localhost networking: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// rtConfig shrinks heartbeats so tests converge quickly in wall time.
func rtConfig() boomfs.Config {
	cfg := boomfs.DefaultConfig()
	cfg.HeartbeatMS = 50
	cfg.DNTimeoutMS = 400
	cfg.FDTickMS = 100
	cfg.ReplicationFactor = 2
	cfg.ChunkSize = 16
	return cfg
}

// TestRealTCPFileSystem runs an entire BOOM-FS deployment — master,
// three datanodes, client — as real-time nodes over real TCP sockets.
func TestRealTCPFileSystem(t *testing.T) {
	cfg := rtConfig()
	masterAddr := freeAddr(t)
	m, err := StartMaster(masterAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var dns []*Server
	for i := 0; i < 3; i++ {
		dn, err := StartDataNode(freeAddr(t), masterAddr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer dn.Close()
		dns = append(dns, dn)
	}
	cl, err := NewClient(freeAddr(t), masterAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Give heartbeats a moment to register datanodes.
	time.Sleep(200 * time.Millisecond)

	if err := cl.Mkdir("/real"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/real/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mv("/real/a", "/real/b"); err != nil {
		t.Fatal(err)
	}
	names, err := cl.Ls("/real")
	if err != nil || strings.Join(names, ",") != "b" {
		t.Fatalf("ls: %v %v", names, err)
	}
	ok, err := cl.Exists("/real/b")
	if err != nil || !ok {
		t.Fatalf("exists: %v %v", ok, err)
	}

	// The data plane: chunked write and read-back across the pipeline.
	payload := "real sockets, same rules: the overlog master never noticed"
	if err := cl.WriteFile("/real/data", payload, cfg.ChunkSize); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/real/data")
	if err != nil || got != payload {
		t.Fatalf("read: %q %v", got, err)
	}

	if err := cl.Rm("/real/b"); err != nil {
		t.Fatal(err)
	}
	ok, _ = cl.Exists("/real/b")
	if ok {
		t.Fatal("rm did not take effect")
	}

	// Errors propagate with master-side detail.
	err = cl.Mkdir("/real")
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate mkdir: %v", err)
	}
}

// TestRunningNodeLint checks that a live node's own static-analysis
// findings are queryable, both as the sys::lint relation and over the
// /debug/lint status endpoint.
func TestRunningNodeLint(t *testing.T) {
	m, err := StartMaster(freeAddr(t), rtConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var rows int
	m.Node.Runtime(func(rt *overlog.Runtime) {
		bindings, qerr := rt.Query(`sys::lint(Code, Sev, Prog, Rule, Subj, Line, Msg)`)
		if qerr != nil {
			t.Errorf("sys::lint query: %v", qerr)
			return
		}
		rows = len(bindings)
	})
	// The master program has deletes and aggregates, so at minimum the
	// CALM point-of-order findings must be present.
	if rows == 0 {
		t.Fatal("sys::lint is empty on a running master")
	}

	if err := m.ServeStatus("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(m.Status.URL() + "/debug/lint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "point-of-order") {
		t.Fatalf("/debug/lint %d:\n%s", resp.StatusCode, body)
	}
}

// TestReplicatedMasterLiveOps: three Paxos-replicated masters on real
// sockets, a gateway client running metadata ops through the log.
func TestReplicatedMasterLiveOps(t *testing.T) {
	replicas := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	cfg := boomfs.DefaultConfig()
	cfg.GCTickMS = 0
	pcfg := paxos.Config{TickMS: 50, ElectTimeout: 300, BallotStride: 100, SyncMS: 200}

	var servers []*Server
	for _, addr := range replicas {
		s, err := StartReplicatedMaster(addr, replicas, cfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
	}

	cl, err := NewReplicatedClient(freeAddr(t), replicas, 20*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Mkdir("/data"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := cl.Create("/data/a"); err != nil {
		t.Fatalf("create: %v", err)
	}
	ok, err := cl.Exists("/data/a")
	if err != nil || !ok {
		t.Fatalf("exists: %v %v", ok, err)
	}
	names, err := cl.Ls("/data")
	if err != nil || len(names) != 1 {
		t.Fatalf("ls: %v %v", names, err)
	}

	// The write went through the log: every replica's catalog must
	// converge on the same file row.
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range servers {
		for {
			n := 0
			s.Node.Runtime(func(rt *overlog.Runtime) { n = rt.Table("file").Len() })
			if n >= 3 { // root + /data + /data/a
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never converged: %d file rows", s.Addr, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
