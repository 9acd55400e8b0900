package transport

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/overlog"
)

func sendTo(tcp *TCP, to string, n int64) error {
	return tcp.Send(overlog.Envelope{To: to,
		Tuple: overlog.NewTuple("msg", overlog.Addr(to), overlog.Int(n))})
}

// TestTCPDialBackoffFailsFast: after the writer's dial fails, sends
// inside the backoff window are refused immediately at enqueue time
// (no queue growth toward a known-dead peer), and the window expires
// on schedule.
func TestTCPDialBackoffFailsFast(t *testing.T) {
	node, tcp, reg, _ := mkFailNode(t, freeAddr(t))
	defer func() { node.Stop(); tcp.Close() }()
	tcp.SetDialBackoff(200*time.Millisecond, time.Second)

	dead := freeAddr(t) // nothing listening there

	// The first send enqueues (nil) and the writer's dial fails
	// asynchronously; wait for the backoff window to open.
	deadline := time.Now().Add(3 * time.Second)
	var err error
	for {
		err = sendTo(tcp, dead, 1)
		if err != nil && strings.Contains(err.Error(), "backing off") {
			break
		}
		if err != nil {
			t.Fatalf("unexpected send error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("backoff window never opened after dial failure")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Within the window: fail-fast, no dial latency, drop counted.
	start := time.Now()
	err = sendTo(tcp, dead, 2)
	if err == nil || !strings.Contains(err.Error(), "backing off") {
		t.Fatalf("expected fail-fast backoff error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("backing-off send took %s, want immediate", elapsed)
	}
	if got := reg.Get("boom_transport_send_errors_total"); got < 2 {
		t.Fatalf("send_errors: %g, want >= 2 (dial drop + fail-fast drops)", got)
	}

	// After the window expires, enqueue is admitted again (the writer
	// re-dials for real).
	deadline = time.Now().Add(3 * time.Second)
	for {
		if err = sendTo(tcp, dead, 3); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backoff window never expired: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPDialBackoffGrowsAndCaps: consecutive failures double the
// window up to the cap, always with at least half the nominal delay
// (the jitter floor).
func TestTCPDialBackoffGrowsAndCaps(t *testing.T) {
	node, tcp, _, _ := mkFailNode(t, freeAddr(t))
	defer func() { node.Stop(); tcp.Close() }()
	base, cap := 100*time.Millisecond, 400*time.Millisecond

	p := tcp.peer("198.51.100.1:9") // TEST-NET, never dialed here
	nominal := []time.Duration{base, 2 * base, 4 * base, cap, cap}
	for i, want := range nominal {
		p.mu.Lock()
		p.noteDialFailure(nil, base, cap)
		fails := p.fails
		window := time.Until(p.until)
		p.mu.Unlock()
		if fails != i+1 {
			t.Fatalf("failure %d: fails=%d", i+1, fails)
		}
		if window < want/2-10*time.Millisecond || window > want {
			t.Fatalf("failure %d: window %s outside [%s, %s]", i+1, window, want/2, want)
		}
	}
}

// TestTCPDialBackoffResetsOnSuccess: a successful dial wipes the
// failure history — the next outage starts from the base window again.
func TestTCPDialBackoffResetsOnSuccess(t *testing.T) {
	nodeA, tcpA, _, _ := mkFailNode(t, freeAddr(t))
	defer func() { nodeA.Stop(); tcpA.Close() }()
	tcpA.SetDialBackoff(50*time.Millisecond, 2*time.Second)

	addrB := freeAddr(t)
	// Fail a few times against the not-yet-started peer to build history.
	p := tcpA.peer(addrB)
	p.mu.Lock()
	for i := 0; i < 3; i++ {
		p.noteDialFailure(nil, 50*time.Millisecond, 2*time.Second)
	}
	p.until = time.Now() // window already expired
	fails := p.fails
	p.mu.Unlock()
	if fails != 3 {
		t.Fatalf("setup: fails=%d", fails)
	}

	nodeB, tcpB, _, _ := mkFailNode(t, addrB)
	defer func() { nodeB.Stop(); tcpB.Close() }()
	if err := sendTo(tcpA, addrB, 1); err != nil {
		t.Fatalf("send after peer came up: %v", err)
	}
	waitGot(t, nodeB, 1, "delivery after recovery")
	p.mu.Lock()
	fails = p.fails
	p.mu.Unlock()
	if fails != 0 {
		t.Fatalf("backoff history not cleared by successful dial: fails=%d", fails)
	}
}

// TestTCPBackoffConcurrentSends is the regression test for the old
// transport's backoff race: fail-fast checks, dial-failure updates, and
// reset-on-success all touched a transport-global map under the
// transport mutex, so concurrent senders to the same peer could
// interleave a reset with a window check and resurrect a cleared
// window. The state is now per-peer under the peer's own mutex; this
// test hammers one dead peer (plus a live one coming up mid-flight)
// from many goroutines under -race and asserts the window converges.
func TestTCPBackoffConcurrentSends(t *testing.T) {
	node, tcp, _, _ := mkFailNode(t, freeAddr(t))
	defer func() { node.Stop(); tcp.Close() }()
	tcp.SetDialBackoff(10*time.Millisecond, 100*time.Millisecond)

	dead := freeAddr(t)
	addrB := freeAddr(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sendTo(tcp, dead, n)
				_ = sendTo(tcp, addrB, n)
				time.Sleep(time.Millisecond)
			}
		}(int64(i))
	}
	// Bring the second peer up mid-hammer so reset-on-success races
	// against fail-fast checks on the same peerQ.
	time.Sleep(50 * time.Millisecond)
	nodeB, tcpB, _, _ := mkFailNode(t, addrB)
	defer func() { nodeB.Stop(); tcpB.Close() }()

	waitGot(t, nodeB, 1, "delivery once peer came up")
	close(stop)
	wg.Wait()

	// The live peer's backoff history must have been cleared exactly
	// once it connected, and stayed cleared.
	p := tcp.peer(addrB)
	p.mu.Lock()
	fails, conn := p.fails, p.conn
	p.mu.Unlock()
	if conn == nil {
		t.Fatal("no connection to recovered peer")
	}
	if fails != 0 {
		t.Fatalf("recovered peer still carries %d dial failures", fails)
	}
}
