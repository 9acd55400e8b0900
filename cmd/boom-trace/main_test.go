package main

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/rtfs"
	"repro/internal/telemetry"
)

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no localhost networking available: %v", err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestFetchAllAssemblesOp attaches to a live master and client: paging
// their raw event rings and asking each for one trace by ID must yield
// the same spans, and they assemble into one tree under the client's
// op root, across both nodes.
func TestFetchAllAssemblesOp(t *testing.T) {
	m, err := rtfs.StartMaster(freeAddr(t), boomfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.ServeStatus("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := rtfs.NewClient(freeAddr(t), m.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clStatus, err := telemetry.Serve("127.0.0.1:0", telemetry.Source{Role: "client", Addr: cl.Addr, Tracer: cl.Tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer clStatus.Close()

	if err := cl.Mkdir("/x"); err != nil {
		t.Fatal(err)
	}
	var id string
	for _, sp := range cl.Tracer.Spans() {
		if sp.Kind == "op" {
			id = sp.TraceID
		}
	}
	if id == "" {
		t.Fatal("client recorded no op span")
	}

	addrs := []string{m.Status.Addr(), clStatus.Addr()}
	one, err := fetchAll(addrs, id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	all, err := fetchAll(addrs, "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var paged []telemetry.Span
	for _, sp := range all {
		if sp.TraceID == id {
			paged = append(paged, sp)
		}
	}
	telemetry.SortSpans(one)
	telemetry.SortSpans(paged)
	if !reflect.DeepEqual(one, paged) {
		t.Fatalf("paged ring and ?id= disagree on trace %s:\n%v\nvs\n%v", id, paged, one)
	}
	roots := telemetry.AssembleTrace(one)
	if len(roots) != 1 || roots[0].Kind != "op" || len(telemetry.TraceNodes(one)) != 2 {
		t.Fatalf("trace %s did not assemble under one op root across 2 nodes:\n%s",
			id, telemetry.Waterfall(roots))
	}
	t.Logf("trace %s:\n%s", id, telemetry.Waterfall(roots))
}
