package paxos

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/overlog"
)

// TestDurableImageGolden pins a replica's durable image byte for byte.
// testdata/replica.snap was written when the durable set was a Go list
// of table names; Snapshot of the declared set must still produce it,
// so images written then still restore.
func TestDurableImageGolden(t *testing.T) {
	c, members := testGroup(t, 3)
	if err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		submit(c, members[0], fmt.Sprintf("r%d", i), fmt.Sprintf("op-%d", i))
	}
	if err := c.Run(5000); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := c.Node(members[0]).Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/replica.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image.Bytes(), want) {
		t.Fatalf("durable image drifted from golden: %d bytes, want %d", image.Len(), len(want))
	}

	fresh := overlog.NewRuntime(members[0])
	if err := InstallRestarted(fresh, members[0], members, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSnapshot(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if got, want := Decided(fresh), Decided(c.Node(members[0])); len(got) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored decided log %v, want %v", got, want)
	}
}
