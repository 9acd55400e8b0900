package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/overlog"
)

func TestValueMarshalRoundTrip(t *testing.T) {
	vals := []overlog.Value{
		overlog.NilValue,
		overlog.Bool(true),
		overlog.Int(-42),
		overlog.Float(3.25),
		overlog.Str("hello\nworld"),
		overlog.Addr("host:1234"),
		overlog.List(overlog.Int(1), overlog.List(overlog.Str("x")), overlog.NilValue),
	}
	for _, v := range vals {
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %s: %v", v, err)
		}
		var back overlog.Value
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %s: %v", v, err)
		}
		if !back.Equal(v) || back.Kind() != v.Kind() {
			t.Fatalf("round trip: %s -> %s", v, back)
		}
	}
}

func TestValueMarshalRejectsOpaque(t *testing.T) {
	if _, err := overlog.Any(struct{}{}).MarshalBinary(); err == nil {
		t.Fatal("expected error for opaque value")
	}
}

func TestValueUnmarshalErrors(t *testing.T) {
	var v overlog.Value
	for _, data := range [][]byte{
		{},
		{byte(overlog.KindInt), 1, 2},           // truncated int
		{byte(overlog.KindString), 0, 0, 0, 9},  // truncated body
		{byte(overlog.KindList), 0, 0, 0, 2, 0}, // truncated elems... kind 0 = nil then EOF
		{99},                                    // unknown kind
	} {
		if err := v.UnmarshalBinary(data); err == nil {
			t.Errorf("expected error for %v", data)
		}
	}
}

// freeAddr grabs an ephemeral localhost port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no localhost networking available: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

const rtPingPong = `
	program pingpong;
	event ping(Addr: addr, From: addr, N: int);
	event pong(Addr: addr, From: addr, N: int);
	table seen(N: int) keys(0);
	r1 pong(@From, Me, N) :- ping(@Me, From, N);
	r2 seen(N) :- pong(@Me, _, N);
`

// TestTCPPingPong runs two real-time nodes over real TCP sockets.
func TestTCPPingPong(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)

	mk := func(addr string) (*Node, *TCP) {
		rt := overlog.NewRuntime(addr)
		if err := rt.InstallSource(rtPingPong); err != nil {
			t.Fatal(err)
		}
		var tcp *TCP
		node := NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
		var err error
		tcp, err = ListenTCP(node, addr)
		if err != nil {
			t.Fatal(err)
		}
		go node.Run()
		return node, tcp
	}
	nodeA, tcpA := mk(addrA)
	nodeB, tcpB := mk(addrB)
	defer func() {
		nodeA.Stop()
		nodeB.Stop()
		tcpA.Close()
		tcpB.Close()
	}()

	// Fire pings from A's side addressed to B.
	for i := 0; i < 5; i++ {
		nodeB.Deliver(overlog.NewTuple("ping",
			overlog.Addr(addrB), overlog.Addr(addrA), overlog.Int(int64(i))))
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		nodeA.Runtime(func(rt *overlog.Runtime) { got = rt.Table("seen").Len() })
		if got == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/5 pongs arrived", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRealtimePeriodics checks that periodic rules fire on the wall
// clock without any inbound traffic — including a periodic installed
// after the loop has stepped and gone to sleep with nothing due, as
// membership is on a running server: the install must wake the loop.
func TestRealtimePeriodics(t *testing.T) {
	rt := overlog.NewRuntime("local")
	if err := rt.InstallSource(`event poke(N: int);`); err != nil {
		t.Fatal(err)
	}
	node := NewNode(rt, func(overlog.Envelope) error { return nil })
	go node.Run()
	defer node.Stop()
	node.Deliver(overlog.NewTuple("poke", overlog.Int(1)))
	steps := func() (n int64) {
		node.Runtime(func(rt *overlog.Runtime) { n = rt.StepCount() })
		return n
	}
	for deadline := time.Now().Add(3 * time.Second); steps() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the poke was never stepped")
		}
	}
	var err error
	node.Runtime(func(rt *overlog.Runtime) {
		err = rt.InstallSource(`
			periodic tick interval 10;
			table ticks(Ord: int) keys(0);
			r1 ticks(Ord) :- tick(Ord, _);
		`)
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		var n int
		node.Runtime(func(rt *overlog.Runtime) { n = rt.Table("ticks").Len() })
		if n >= 5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d ticks", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendErrorSurfaced verifies unreachable peers don't kill the loop.
func TestSendErrorSurfaced(t *testing.T) {
	rt := overlog.NewRuntime("local")
	if err := rt.InstallSource(`
		event out(Addr: addr, N: int);
		event in(N: int);
		r1 out(@A, N) :- in(N), A := "127.0.0.1:1"; // almost surely closed
	`); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	var tcp *TCP
	node := NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	node.OnSendError = func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var err error
	tcp, err = ListenTCP(node, freeAddr(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	go node.Run()
	defer node.Stop()

	// Send is asynchronous: the first frame enqueues cleanly and only
	// the writer's dial failure opens the fail-fast window, after which
	// the next send surfaces an error. Keep feeding frames until then.
	deadline := time.Now().Add(3 * time.Second)
	var n int64 = 1
feed:
	for {
		node.Deliver(overlog.NewTuple("in", overlog.Int(n)))
		n++
		select {
		case <-errs:
			break feed
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("send error never surfaced")
		}
	}
	// The node is still alive afterwards.
	node.Deliver(overlog.NewTuple("in", overlog.Int(2)))
	time.Sleep(50 * time.Millisecond)
	var steps int64
	node.Runtime(func(rt *overlog.Runtime) { steps = rt.StepCount() })
	if steps < 2 {
		t.Fatalf("node stalled after send error: %d steps", steps)
	}
}

// TestNodeClockStaysOnTheWall: however many steps a node takes inside
// one millisecond, its clock reads wall time. When each step was forced
// a millisecond past the last, ten thousand quick steps put the clock
// ten seconds ahead, and until the wall caught up it advanced one
// millisecond per step — periodics (heartbeats) slowed to the step rate.
func TestNodeClockStaysOnTheWall(t *testing.T) {
	node := NewNode(overlog.NewRuntime("solo"), func(overlog.Envelope) error { return nil })
	for i := 0; i < 10000; i++ {
		node.lastMS = node.nowMS() // what Run does around every Step
	}
	if wall := node.Now(); node.lastMS > wall {
		t.Fatalf("after 10000 back-to-back steps the clock reads %d ms, the wall %d ms", node.lastMS, wall)
	}
	node.lastMS += 5 // never backwards, even if the wall is behind
	if got := node.nowMS(); got < node.lastMS {
		t.Fatalf("clock moved backwards: %d after %d", got, node.lastMS)
	}
}
