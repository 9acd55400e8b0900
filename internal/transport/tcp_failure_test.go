package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/overlog"
	"repro/internal/telemetry"
)

const failProg = `
	event msg(Addr: addr, N: int);
	table got(N: int) keys(0);
	r1 got(N) :- msg(A, N);
`

// mkFailNode builds a TCP node running failProg with telemetry attached.
func mkFailNode(t *testing.T, addr string) (*Node, *TCP, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	return mkProgNode(t, addr, failProg)
}

// mkProgNode builds a TCP node running prog with telemetry attached.
func mkProgNode(t *testing.T, addr, prog string) (*Node, *TCP, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	rt := overlog.NewRuntime(addr)
	if err := rt.InstallSource(prog); err != nil {
		t.Fatal(err)
	}
	var tcp *TCP
	node := NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	var err error
	tcp, err = ListenTCP(node, addr)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(128)
	tcp.SetTelemetry(NewTCPStats(reg))
	tcp.SetTracer(tr)
	go node.Run()
	return node, tcp, reg, tr
}

func waitGot(t *testing.T, node *Node, want int, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var n int
		node.Runtime(func(rt *overlog.Runtime) { n = rt.Table("got").Len() })
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: got %d/%d", msg, n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPDialFailureCounts checks that a send to an unreachable peer is
// counted as a drop and recorded in the event ring, without wedging the
// transport. Send is asynchronous now — the frame enqueues cleanly and
// the writer's dial failure shows up in the metrics and ring shortly
// after.
func TestTCPDialFailureCounts(t *testing.T) {
	node, tcp, reg, j := mkFailNode(t, freeAddr(t))
	defer func() { node.Stop(); tcp.Close() }()

	env := overlog.Envelope{To: "127.0.0.1:1", // almost surely closed
		Tuple: overlog.NewTuple("msg", overlog.Addr("127.0.0.1:1"), overlog.Int(1))}
	if err := tcp.Send(env); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get("boom_transport_send_errors_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("dial failure never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var drop *telemetry.Span
	for _, ev := range j.Spans() {
		if ev.Kind == "drop" {
			ev := ev
			drop = &ev
		}
	}
	if drop == nil || !strings.Contains(drop.Detail, "dial") {
		t.Fatalf("drop event: %+v", drop)
	}
}

// TestTCPPeerRestartReconnect kills a peer mid-conversation, restarts
// it on the same address, and checks the sender recovers (dropping the
// stale connection, re-dialing, counting the reconnect).
func TestTCPPeerRestartReconnect(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	nodeA, tcpA, regA, _ := mkFailNode(t, addrA)
	defer func() { nodeA.Stop(); tcpA.Close() }()
	// Keep re-dial windows short so the recovery loop below converges
	// well inside its deadline.
	tcpA.SetDialBackoff(20*time.Millisecond, 200*time.Millisecond)

	nodeB, tcpB, _, _ := mkFailNode(t, addrB)
	send := func(n int64) error {
		return tcpA.Send(overlog.Envelope{To: addrB,
			Tuple: overlog.NewTuple("msg", overlog.Addr(addrB), overlog.Int(n))})
	}
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	waitGot(t, nodeB, 1, "before restart")

	// Kill B. The sender sees the hang-up and drops its connection; the
	// redial fails, and sends fail fast inside the backoff window, each
	// counted.
	nodeB.Stop()
	tcpB.Close()
	deadline := time.Now().Add(5 * time.Second)
	for send(2) == nil {
		if time.Now().After(deadline) {
			t.Fatal("sends to dead peer never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if regA.Get("boom_transport_send_errors_total") == 0 {
		t.Fatal("send_errors not counted")
	}

	// Restart B on the same address; A must re-dial transparently.
	nodeB2, tcpB2, regB2, _ := mkFailNode(t, addrB)
	defer func() { nodeB2.Stop(); tcpB2.Close() }()
	deadline = time.Now().Add(5 * time.Second)
	for send(3) != nil {
		if time.Now().After(deadline) {
			t.Fatal("reconnect never succeeded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitGot(t, nodeB2, 1, "after restart")
	if regA.Get("boom_transport_reconnects_total") == 0 {
		t.Fatal("reconnect not counted")
	}
	if regB2.Get("boom_transport_accepts_total") == 0 {
		t.Fatal("restarted peer accepted nothing")
	}
}

// TestTCPMetricsCount checks the frame/byte counters and ring events on
// both ends of a healthy untraced conversation: one entry per message
// per side, none of them with a span ID.
func TestTCPMetricsCount(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	nodeA, tcpA, regA, jA := mkFailNode(t, addrA)
	defer func() { nodeA.Stop(); tcpA.Close() }()
	nodeB, tcpB, regB, jB := mkFailNode(t, addrB)
	defer func() { nodeB.Stop(); tcpB.Close() }()

	for i := int64(0); i < 5; i++ {
		if err := tcpA.Send(overlog.Envelope{To: addrB,
			Tuple: overlog.NewTuple("msg", overlog.Addr(addrB), overlog.Int(i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitGot(t, nodeB, 5, "delivery")

	if got := regA.Get("boom_transport_sent_total"); got != 5 {
		t.Fatalf("sent: %g", got)
	}
	if regA.Get("boom_transport_sent_bytes_total") == 0 {
		t.Fatal("sent bytes not counted")
	}
	if got := regB.Get("boom_transport_recv_total"); got != 5 {
		t.Fatalf("recv: %g", got)
	}
	if regB.Get("boom_transport_recv_bytes_total") == 0 {
		t.Fatal("recv bytes not counted")
	}
	if regB.Get("boom_transport_accepts_total") != 1 {
		t.Fatalf("accepts: %g", regB.Get("boom_transport_accepts_total"))
	}
	count := func(tr *telemetry.Tracer, kind string) int {
		n := 0
		for _, ev := range tr.Spans() {
			if ev.Kind != kind || ev.Op != "msg" || ev.SpanID != "" || ev.TraceID != "" {
				t.Fatalf("unexpected ring entry %+v", ev)
			}
			n++
		}
		return n
	}
	// An untraced frame is one event, at its sender: the receiver's
	// ring stays empty.
	if sends, recvs := count(jA, "send"), len(jB.Spans()); sends != 5 || recvs != 0 {
		t.Fatalf("ring: %d sends, %d receiver entries; want 5, 0", sends, recvs)
	}
}

// TestWireMsgCarriesTraceID checks end-to-end trace propagation: a
// table with a registered trace column stamps the frame, and the
// receiver records the same ID. Each side records exactly one entry:
// the sender's send span, whether the step hook parked it (a rule's
// emission) or Send stamped it (a direct call), and the receiver's recv
// span, parented to it.
func TestWireMsgCarriesTraceID(t *testing.T) {
	telemetry.RegisterTraceColumn("msg", 1)
	defer telemetry.RegisterTraceColumn("msg", -1)

	addrA, addrB := freeAddr(t), freeAddr(t)
	nodeA, tcpA, _, jA := mkFailNode(t, addrA)
	defer func() { nodeA.Stop(); tcpA.Close() }()
	nodeB, tcpB, _, jB := mkFailNode(t, addrB)
	defer func() { nodeB.Stop(); tcpB.Close() }()
	var err error
	nodeA.Runtime(func(rt *overlog.Runtime) {
		err = rt.InstallSource(`event fwd(To: addr, N: int); f1 msg(@To, N) :- fwd(To, N);`)
		telemetry.AttachTracer(jA, addrA, rt, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	// 77 leaves through a rule (the step hook parks its send span), 78
	// through a direct Send.
	nodeA.Deliver(overlog.NewTuple("fwd", overlog.Addr(addrB), overlog.Int(77)))
	waitGot(t, nodeB, 1, "rule-emitted delivery")
	if err := tcpA.Send(overlog.Envelope{To: addrB,
		Tuple: overlog.NewTuple("msg", overlog.Addr(addrB), overlog.Int(78))}); err != nil {
		t.Fatal(err)
	}
	waitGot(t, nodeB, 2, "direct delivery")

	for _, id := range []string{"77", "78"} {
		sent := jA.ByTrace(id)
		if len(sent) != 1 || sent[0].Kind != "send" || sent[0].SpanID == "" {
			t.Fatalf("sender ring for trace %s: %+v", id, sent)
		}
		got := jB.ByTrace(id)
		if len(got) != 1 || got[0].Kind != "recv" || got[0].ParentID != sent[0].SpanID {
			t.Fatalf("receiver ring for trace %s: %+v (sender %+v)", id, got, sent)
		}
	}
	if n, m := len(jA.Spans()), len(jB.Spans()); n != 2 || m != 2 {
		t.Fatalf("ring sizes: sender %d, receiver %d; want 2 each", n, m)
	}
}

// TestTCPFirstFrameAfterPeerRestart sends one frame, restarts the peer
// on the same address, and 50 ms later sends one more: the restarted
// peer must get it. The sender's connection to the old incarnation is
// dead, and a frame written into it is accepted by the kernel and lost
// without an error, so the sender has to notice the hang-up before it
// writes, and redial.
func TestTCPFirstFrameAfterPeerRestart(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	nodeA, tcpA, _, _ := mkFailNode(t, addrA)
	defer func() { nodeA.Stop(); tcpA.Close() }()
	send := func(n int64) {
		t.Helper()
		if err := tcpA.Send(overlog.Envelope{To: addrB,
			Tuple: overlog.NewTuple("msg", overlog.Addr(addrB), overlog.Int(n))}); err != nil {
			t.Fatal(err)
		}
	}

	nodeB, tcpB, _, _ := mkFailNode(t, addrB)
	send(1)
	waitGot(t, nodeB, 1, "before restart")
	nodeB.Stop()
	tcpB.Close()
	nodeB2, tcpB2, _, _ := mkFailNode(t, addrB)
	defer func() { nodeB2.Stop(); tcpB2.Close() }()
	time.Sleep(50 * time.Millisecond)
	send(2)
	waitGot(t, nodeB2, 1, "first frame after the restart")
}
