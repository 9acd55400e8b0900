package boomfs

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/overlog"
)

// durableImage runs a seeded three-replica master through a few
// namespace writes and returns replica 0's runtime and durable image.
func durableImage(t *testing.T) (*overlog.Runtime, []byte) {
	t.Helper()
	c, rm, _, cl := testReplicatedFS(t, 3, 3)
	if err := cl.Mkdir("/g"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/g/f", "durable bytes"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/g/e"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(c.Now() + 3000); err != nil {
		t.Fatal(err)
	}
	rt := rm.Master(0).Runtime()
	var image bytes.Buffer
	if err := rt.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	return rt, image.Bytes()
}

// TestDurableImageGolden pins a replicated master's durable image byte
// for byte. testdata/replicated_master.snap was written when the
// durable set was two Go lists of table names (the acceptor's and the
// catalog's); Snapshot of the declared set must still produce it, so
// checkpoints written then still restore.
func TestDurableImageGolden(t *testing.T) {
	_, image := durableImage(t)
	want, err := os.ReadFile("testdata/replicated_master.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, want) {
		t.Fatalf("durable image drifted from golden: %d bytes, want %d", len(image), len(want))
	}
}

// TestTornImageRejected is a crash at every offset of a checkpoint
// write: every proper prefix of a durable image must fail to restore,
// never load as a smaller, valid-looking state.
func TestTornImageRejected(t *testing.T) {
	rt, image := durableImage(t)
	var decls strings.Builder
	for _, name := range rt.TableNames() {
		if d := rt.Table(name).Decl(); d.Durable {
			decls.WriteString(d.String())
		}
	}
	for n := 0; n < len(image); n++ {
		fresh := overlog.NewRuntime("torn")
		if err := fresh.InstallSource(decls.String()); err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreSnapshot(bytes.NewReader(image[:n])); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte image restored without error", n, len(image))
		}
	}
	fresh := overlog.NewRuntime("whole")
	if err := fresh.InstallSource(decls.String()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSnapshot(bytes.NewReader(image)); err != nil {
		t.Fatal(err)
	}
}
