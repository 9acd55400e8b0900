package transport

import (
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/overlog"
)

// stalledListener accepts connections and never reads from them, so
// the sender's writes back up in the kernel buffer and its writer
// goroutine blocks — the scenario the bounded queue exists for.
func stalledListener(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no localhost networking: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
}

// bigPayload makes frames large enough that a few dozen fill the
// kernel's socket buffers and stall the writer.
func bigPayload(n int64) overlog.Tuple {
	return overlog.NewTuple("msg", overlog.Addr("x"), overlog.Int(n),
		overlog.Str(strings.Repeat("x", 32<<10)))
}

// TestSendQueueBoundedUnderStalledReader is the bounded-memory test:
// with a peer that accepts but never reads, the per-peer queue must
// stay at or under its cap (the oldest frame evicted to admit each new
// one) while Send keeps returning immediately — and the drops must be
// visible in the metrics.
func TestSendQueueBoundedUnderStalledReader(t *testing.T) {
	node, tcp, reg, _ := mkFailNode(t, freeAddr(t))
	defer func() { node.Stop(); tcp.Close() }()
	tcp.SetQueueConfig(QueueConfig{Cap: 16, MaxBatch: 4})

	dest, cleanup := stalledListener(t)
	defer cleanup()

	for i := int64(0); i < 400; i++ {
		if err := tcp.Send(overlog.Envelope{To: dest, Tuple: bigPayload(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if d := tcp.QueueDepth(); d > 16 {
			t.Fatalf("queue depth %d exceeds cap 16 after %d sends", d, i+1)
		}
	}
	if drops := reg.Get("boom_transport_queue_drops_total"); drops == 0 {
		t.Fatal("stalled reader produced no queue drops")
	}
	tcp.RegisterQueueGauges(reg)
	if depth := reg.Get("boom_transport_queue_depth"); depth > 16 {
		t.Fatalf("queue depth gauge %g exceeds cap", depth)
	}
	// Per-peer introspection (the /debug/transport payload) agrees.
	var found bool
	for _, p := range tcp.Peers() {
		if p.Addr == dest {
			found = true
			if p.Queued > 16 {
				t.Fatalf("peer %s queued %d > cap", p.Addr, p.Queued)
			}
			if p.Drops == 0 {
				t.Fatal("peer drop count not surfaced")
			}
		}
	}
	if !found {
		t.Fatal("stalled peer missing from Peers()")
	}
}
