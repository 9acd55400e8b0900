package rtfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/overlog"
)

// TestRealTimeCheckpointRestore: checkpoint a live TCP master, kill it,
// bring up a replacement from the image at a fresh address, and verify
// the namespace survived — the FsImage flow end to end on real sockets.
func TestRealTimeCheckpointRestore(t *testing.T) {
	cfg := rtConfig()
	masterAddr := freeAddr(t)
	m, err := StartMaster(masterAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dns []*Server
	for i := 0; i < 2; i++ {
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
	time.Sleep(200 * time.Millisecond)

	if err := cl.Mkdir("/ck"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/ck/a"); err != nil {
		t.Fatal(err)
	}
	// The master's catalog mutation is deferred by one timestep (the
	// `next` rule); wait until it is visible before checkpointing.
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		found := false
		m.Node.Runtime(func(rt *overlog.Runtime) {
			_, found = rt.Table("fqpath").LookupKey(overlog.NewTuple("fqpath",
				overlog.Str("/ck/a"), overlog.Int(0)))
		})
		if found {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("catalog never reflected the create")
		}
		time.Sleep(2 * time.Millisecond)
	}

	image := filepath.Join(t.TempDir(), "fsimage")
	if err := m.Checkpoint(image); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(image); err != nil || fi.Size() == 0 {
		t.Fatalf("image: %v %v", fi, err)
	}
	m.Close()

	recoveredAddr := freeAddr(t)
	m2, err := StartMasterFrom(recoveredAddr, cfg, image)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	cl2, err := NewClient(freeAddr(t), recoveredAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	names, err := cl2.Ls("/ck")
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("ls after restore: %v %v", names, err)
	}
	// The recovered master keeps working for new metadata.
	if err := cl2.Create("/ck/b"); err != nil {
		t.Fatal(err)
	}
	ok, err := cl2.Exists("/ck/b")
	if err != nil || !ok {
		t.Fatalf("exists: %v %v", ok, err)
	}
}

// TestCheckpointRestoreWithGossip: a gossiping master's checkpoint holds
// the catalog but not the membership view, so the restored master boots
// (the unit is installed only after the restore) and starts from a view
// of itself, not the old process's.
func TestCheckpointRestoreWithGossip(t *testing.T) {
	cfg := rtConfig()
	gossip := membership.Config{ProbeInterval: 50 * time.Millisecond}
	m, err := StartMaster(freeAddr(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartGossip(gossip); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // a few membership ticks
	image := filepath.Join(t.TempDir(), "fsimage")
	if err := m.Checkpoint(image); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := StartMasterFrom(freeAddr(t), cfg, image)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if err := m2.StartGossip(gossip); err != nil {
		t.Fatal(err)
	}
	var view map[string]membership.Row
	m2.Node.Runtime(func(rt *overlog.Runtime) { view = membership.View(rt) })
	if _, ok := view[m2.Addr]; len(view) != 1 || !ok {
		t.Fatalf("restored master's view %v, want only itself (%s)", view, m2.Addr)
	}
}

// TestFailedCheckpointKeepsPreviousImage: Checkpoint writes a temporary
// file and renames it over the image, so a write that fails (here the
// temporary path is taken by a directory) leaves the previous image
// byte for byte as it was.
func TestFailedCheckpointKeepsPreviousImage(t *testing.T) {
	m, err := StartMaster(freeAddr(t), rtConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	image := filepath.Join(t.TempDir(), "fsimage")
	if err := m.Checkpoint(image); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(image)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(image+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(image); err == nil {
		t.Fatal("checkpoint over a blocked temporary path succeeded")
	}
	after, err := os.ReadFile(image)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("previous image changed by a failed checkpoint (err %v)", err)
	}
}
