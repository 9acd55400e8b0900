package rtfs

import (
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/paxos"
)

// liveDNs reads the master's datanode relation with the liveness
// cutoff the FS rules use.
func liveDNs(s *Server, timeoutMS int64) []string {
	var out []string
	s.Node.Runtime(func(rt *overlog.Runtime) {
		cutoff := rt.NowMS() - timeoutMS
		tbl := rt.Table("datanode")
		if tbl == nil {
			return
		}
		for _, tp := range tbl.Tuples() {
			if tp.Vals[1].AsInt() >= cutoff {
				out = append(out, tp.Vals[0].AsString())
			}
		}
	})
	return out
}

// TestGossipFeedsDatanodeRelation: with datanode heartbeats configured
// far apart, only the membership feed can keep the master's datanode
// relation fresh — and when a datanode dies, membership must both mark
// it dead and let the relation's liveness cutoff expire it. This is
// the "membership materializes into the relations the rules consume"
// claim, asserted end to end on real sockets.
func TestGossipFeedsDatanodeRelation(t *testing.T) {
	cfg := boomfs.DefaultConfig()
	cfg.HeartbeatMS = 60000 // one heartbeat at boot, then none
	cfg.DNTimeoutMS = 400
	cfg.FDTickMS = 100
	cfg.GCTickMS = 0

	master, err := StartMaster(freeAddr(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	const probe = 50 * time.Millisecond
	if err := master.StartGossip(membership.Config{ProbeInterval: probe}); err != nil {
		t.Fatal(err)
	}

	seeds := membership.Config{
		Seeds:         []string{master.Addr},
		SeedRoles:     map[string]string{master.Addr: "master"},
		ProbeInterval: probe,
	}
	dn1, err := StartDataNode(freeAddr(t), master.Addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dn1.Close()
	if err := dn1.StartGossip(seeds); err != nil {
		t.Fatal(err)
	}
	dn2, err := StartDataNode(freeAddr(t), master.Addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dn2.StartGossip(seeds); err != nil {
		t.Fatal(err)
	}

	// Both datanodes must appear live — and stay live past several
	// DNTimeoutMS windows, which only the membership-fed dn_alive
	// refresh can sustain with heartbeats this sparse.
	deadline := time.Now().Add(10 * time.Second)
	for len(liveDNs(master, cfg.DNTimeoutMS)) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("datanodes never went live via gossip: %v", liveDNs(master, cfg.DNTimeoutMS))
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(3 * time.Duration(cfg.DNTimeoutMS) * time.Millisecond)
	if live := liveDNs(master, cfg.DNTimeoutMS); len(live) != 2 {
		t.Fatalf("gossip failed to sustain liveness: %v", live)
	}

	// dn_alive traces by datanode address: the feed rule's dn_alive
	// enters each master step as input, where the tracer stamps a rules
	// span under dn1's address. The boot heartbeat accounts for one.
	fed := 0
	for _, sp := range master.Tracer.ByTrace(dn1.Addr) {
		if sp.Kind == "rules" && sp.Op == "dn_alive" {
			fed++
		}
	}
	if fed < 3 {
		t.Fatalf("%d dn_alive rule spans under %s; want the feed's, not just the boot heartbeat's: %v",
			fed, dn1.Addr, master.Tracer.ByTrace(dn1.Addr))
	}

	// Kill dn2: membership must mark it dead within its interval budget,
	// after which the relation's cutoff expires it.
	dn2.Close()
	killed := time.Now()
	budget := 25 * probe
	for {
		var row membership.Row
		master.Node.Runtime(func(rt *overlog.Runtime) { row = membership.View(rt)[dn2.Addr] })
		if row.State == membership.Dead {
			break
		}
		if time.Since(killed) > budget {
			t.Fatalf("gossip never marked killed datanode dead; its row: %+v", row)
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline = time.Now().Add(2 * time.Duration(cfg.DNTimeoutMS) * time.Millisecond)
	for {
		live := liveDNs(master, cfg.DNTimeoutMS)
		if len(live) == 1 && live[0] == dn1.Addr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("datanode relation never expired the dead node: %v", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGossipOnReplicatedMaster: membership installs beside Paxos on
// every replica of a replicated master, and both keep running: after
// ten probe intervals every view still holds the whole group alive, and
// a replica leads. The two units once both declared a member table,
// so the second install failed.
func TestGossipOnReplicatedMaster(t *testing.T) {
	replicas := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	cfg := boomfs.DefaultConfig()
	cfg.GCTickMS = 0
	pcfg := paxos.Config{TickMS: 50, ElectTimeout: 300, BallotStride: 100, SyncMS: 200}
	const probe = 50 * time.Millisecond
	opts := membership.Config{Seeds: replicas, SeedRoles: map[string]string{}, ProbeInterval: probe}
	for _, addr := range replicas {
		opts.SeedRoles[addr] = "master"
	}
	var servers []*Server
	for _, addr := range replicas {
		s, err := StartReplicatedMaster(addr, replicas, cfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.StartGossip(opts); err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		servers = append(servers, s)
	}
	time.Sleep(10 * probe)
	leaders := 0
	for _, s := range servers {
		var alive int64
		s.Node.Runtime(func(rt *overlog.Runtime) {
			alive = membership.Count(rt, membership.Alive)
			if paxos.IsLeader(rt) {
				leaders++
			}
		})
		if alive != int64(len(replicas)) {
			t.Errorf("%s: %d of %d replicas alive in its view", s.Addr, alive, len(replicas))
		}
	}
	if leaders == 0 {
		t.Error("no replica leads")
	}
}
