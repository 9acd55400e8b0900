package rtfs

import (
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/membership"
	"repro/internal/overlog"
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
