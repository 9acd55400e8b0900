package boomfs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/boomfs"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// TestInvariantsUnderDataNodeChurn drives metadata and data operations
// while datanodes die and revive, then checks the master's global
// invariants:
//
//  1. fqpath and file are in bijection (no orphan paths, no unreachable
//     files);
//  2. every chunk of every file is owned by exactly one file;
//  3. after the cluster settles, every chunk of every surviving file
//     has at least ReplicationFactor live replicas.
//
// The churn itself is a chaos.Schedule — a replayable list of timed
// kill/revive actions generated under the constraint that at least
// ReplicationFactor+1 datanodes stay live — applied while the workload
// runs synchronously on top (this lives in package boomfs_test because
// chaos itself builds on boomfs).
func TestInvariantsUnderDataNodeChurn(t *testing.T) {
	cfg := boomfs.DefaultConfig()
	cfg.ReplicationFactor = 2
	cfg.ChunkSize = 16
	c := sim.NewCluster(sim.WithLatency(sim.ConstLatency(1)), sim.WithClusterSeed(31))
	m, err := boomfs.NewMaster(c, "master:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dns []*boomfs.DataNode
	for i := 0; i < 5; i++ {
		dn, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), m.Addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dns = append(dns, dn)
	}
	cl, err := boomfs.NewClient(c, "client:0", cfg, m.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// Let a couple of heartbeat rounds land so placement has targets.
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	live := make([]bool, len(dns))
	for i := range live {
		live[i] = true
	}
	liveCount := len(dns)
	var sched chaos.Schedule
	for at := int64(800); at < 18_000; at += 900 + int64(rng.Intn(900)) {
		if rng.Intn(2) == 0 && liveCount > cfg.ReplicationFactor+1 {
			idx := rng.Intn(len(dns))
			if live[idx] {
				sched = append(sched, chaos.Action{AtMS: at, Kind: chaos.Kill, Node: dns[idx].Addr})
				live[idx] = false
				liveCount--
			}
		} else {
			for idx := range dns {
				if !live[idx] {
					sched = append(sched, chaos.Action{AtMS: at, Kind: chaos.Revive, Node: dns[idx].Addr})
					live[idx] = true
					liveCount++
					break
				}
			}
		}
	}
	if err := sched.Apply(c); err != nil {
		t.Fatal(err)
	}
	t.Logf("churn schedule (%d actions):\n%s", len(sched), sched)

	// The workload runs synchronously while the schedule's faults fire
	// underneath it; the pause after each op walks virtual time through
	// the fault window. Ops racing a fault may fail — that's the point —
	// so only acknowledged writes join the survivor set.
	const body = "0123456789abcdef0123456789abcdef"
	if err := cl.Mkdir("/c"); err != nil {
		t.Fatal(err)
	}
	var files []string
	next := 0
	for i := 0; i < 24; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // write a small file
			p := fmt.Sprintf("/c/f%03d", next)
			next++
			if err := cl.WriteFile(p, body); err == nil {
				files = append(files, p)
			}
		case 3: // remove one
			if len(files) > 0 {
				idx := rng.Intn(len(files))
				if err := cl.Rm(files[idx]); err == nil {
					files = append(files[:idx], files[idx+1:]...)
				}
			}
		case 4: // rename one
			if len(files) > 0 {
				idx := rng.Intn(len(files))
				np := fmt.Sprintf("/c/r%03d", next)
				next++
				if err := cl.Mv(files[idx], np); err == nil {
					files[idx] = np
				}
			}
		default: // metadata reads
			if len(files) > 0 {
				if _, err := cl.Exists(files[rng.Intn(len(files))]); err != nil {
					t.Fatalf("exists: %v", err)
				}
			}
			if _, err := cl.Ls("/c"); err != nil {
				t.Fatalf("ls: %v", err)
			}
		}
		if err := c.Run(c.Now() + 700); err != nil {
			t.Fatal(err)
		}
	}
	// Run out the schedule, then revive everyone and let re-replication
	// settle.
	if c.Now() < sched.End() {
		if err := c.Run(sched.End() + 10); err != nil {
			t.Fatal(err)
		}
	}
	for _, dn := range dns {
		c.Revive(dn.Addr)
	}
	rt := m.Runtime()

	// Invariant 1: fqpath <-> file bijection.
	if rt.Table("fqpath").Len() != rt.Table("file").Len() {
		t.Fatalf("fqpath %d != file %d\n%s\n%s", rt.Table("fqpath").Len(),
			rt.Table("file").Len(), rt.Table("fqpath").Dump(), rt.Table("file").Dump())
	}
	// Invariant 2: every fchunk's file exists; each chunk appears once.
	bindings, err := rt.Query(`fchunk(C, F, I), notin file(F, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 0 {
		t.Fatalf("orphan chunks: %v", bindings)
	}
	// Invariant 3: full replication for every surviving file's chunks.
	var allChunks []int64
	for _, p := range files {
		ids, err := cl.Chunks(p)
		if err != nil {
			t.Fatalf("chunks %s: %v", p, err)
		}
		allChunks = append(allChunks, ids...)
	}
	met, err := c.RunUntil(func() bool {
		for _, cid := range allChunks {
			n := 0
			for _, dn := range dns {
				if dn.HasChunk(cid) {
					n++
				}
			}
			if n < cfg.ReplicationFactor {
				return false
			}
		}
		return true
	}, c.Now()+180_000)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		t.Fatalf("replication not restored for %d chunks of %d files",
			len(allChunks), len(files))
	}
	// And every surviving file still reads correctly.
	for _, p := range files {
		got, err := cl.ReadFile(p)
		if err != nil || got != body {
			t.Fatalf("read %s: %q %v", p, got, err)
		}
	}
}
