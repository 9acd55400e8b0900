package boomfs

import (
	"bytes"
	"testing"
)

// TestMasterCheckpointRecovery is the paper's "FsImage for free"
// argument in executable form: because the master's entire state is
// relations, checkpointing is Runtime.Snapshot and recovery is a
// restore into a fresh master. After recovery the namespace is intact,
// datanodes re-register via heartbeats, and reads/writes continue.
func TestMasterCheckpointRecovery(t *testing.T) {
	cfg := smallConfig()
	c, m, _, cl := testFS(t, 3, cfg)

	if err := cl.Mkdir("/persist"); err != nil {
		t.Fatal(err)
	}
	data := "state is data, checkpointing is a table scan...."
	if err := cl.WriteFile("/persist/f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/persist/empty"); err != nil {
		t.Fatal(err)
	}

	// Checkpoint the master.
	var image bytes.Buffer
	if err := m.Runtime().Snapshot(&image); err != nil {
		t.Fatal(err)
	}

	// The master dies; a replacement process starts at a new address
	// from the checkpoint.
	c.Kill(m.Addr)
	m2, err := NewMaster(c, "master:recovered", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Runtime().RestoreSnapshot(bytes.NewReader(image.Bytes())); err != nil {
		t.Fatal(err)
	}
	// A client of the new address, and the datanodes repointed (in HDFS
	// terms: the standby's address comes from config/VIP; here we rewire
	// explicitly). The extra master fact makes heartbeats reach both the
	// dead master (dropped by the network) and the recovered one.
	if cl, err = NewClient(c, "client:recovered", cfg, m2.Addr); err != nil {
		t.Fatal(err)
	}
	for _, dnAddr := range []string{"dn:0", "dn:1", "dn:2"} {
		if rt := c.Node(dnAddr); rt != nil {
			if err := rt.InstallSource(`master("master:recovered");`); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wait for heartbeats to repopulate the datanode/hb_chunk view.
	met, err := c.RunUntil(func() bool {
		return len(m2.LiveDataNodes()) == 3
	}, c.Now()+30_000)
	if err != nil || !met {
		t.Fatalf("datanodes did not re-register: %v %v", met, err)
	}

	// Namespace fully recovered.
	names, err := cl.Ls("/persist")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "empty" || names[1] != "f" {
		t.Fatalf("ls after recovery: %v", names)
	}
	got, err := cl.ReadFile("/persist/f")
	if err != nil || got != data {
		t.Fatalf("read after recovery: %q %v", got, err)
	}
	// And the recovered master keeps accepting writes.
	if err := cl.WriteFile("/persist/g", "post-recovery write"); err != nil {
		t.Fatal(err)
	}
	got, err = cl.ReadFile("/persist/g")
	if err != nil || got != "post-recovery write" {
		t.Fatalf("post-recovery write: %q %v", got, err)
	}
}
