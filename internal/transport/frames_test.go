package transport

import (
	"bytes"
	"encoding/gob"
	"net"
	"testing"
	"time"

	"repro/internal/boomfs"
	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/telemetry"
)

const echoDecls = `
	event ping(To: addr, From: addr, N: int);
	event pong(To: addr, N: int);
	table got(N: int) keys(0);
`

// TestForeignFrameDoesNotStopNode sends a node one batch holding a
// tuple of a table it never declared, a ping with one value of the
// three declared, and a good ping. The two bad tuples are dropped at
// the node's boundary — counted and recorded as drops — while the good
// ping in the same batch is answered, and so is a later one: the node
// keeps stepping.
func TestForeignFrameDoesNotStopNode(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	nodeA, tcpA, _, _ := mkProgNode(t, addrA, echoDecls+`g1 got(N) :- pong(_, N);`)
	defer func() { nodeA.Stop(); tcpA.Close() }()

	rtB := overlog.NewRuntime(addrB)
	if err := rtB.InstallSource(echoDecls + `p1 pong(@From, N) :- ping(_, From, N);`); err != nil {
		t.Fatal(err)
	}
	var tcpB *TCP
	nodeB := NewNode(rtB, func(env overlog.Envelope) error { return tcpB.Send(env) })
	nodeB.OnError = func(err error) { t.Errorf("node B stopped: %v", err) }
	tcpB, err := ListenTCP(nodeB, addrB)
	if err != nil {
		t.Fatal(err)
	}
	regB, trB := telemetry.NewRegistry(), telemetry.NewTracer(0)
	tcpB.SetTelemetry(NewTCPStats(regB))
	tcpB.SetTracer(trB)
	go nodeB.Run()
	defer func() { nodeB.Stop(); tcpB.Close() }()

	conn, err := net.Dial("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(&wireBatch{Msgs: []WireMsg{
		{To: addrB, Table: "nosuch", Vals: []overlog.Value{overlog.Int(1)}},
		{To: addrB, Table: "ping", Vals: []overlog.Value{overlog.Addr(addrB)}},
		{To: addrB, Table: "ping", Vals: []overlog.Value{overlog.Addr(addrB), overlog.Addr(addrA), overlog.Int(1)}},
	}}); err != nil {
		t.Fatal(err)
	}
	waitGot(t, nodeA, 1, "pong from the good ping in the bad batch")
	if err := tcpA.Send(overlog.Envelope{To: addrB, Tuple: overlog.NewTuple("ping",
		overlog.Addr(addrB), overlog.Addr(addrA), overlog.Int(2))}); err != nil {
		t.Fatal(err)
	}
	waitGot(t, nodeA, 2, "pong from a later ping")

	if got := regB.Get("boom_transport_rejects_total"); got != 2 {
		t.Fatalf("rejects = %g, want 2", got)
	}
	var drops []string
	for _, sp := range trB.Spans() {
		if sp.Kind == "drop" {
			drops = append(drops, sp.Op)
		}
	}
	if len(drops) != 2 || drops[0] != "nosuch" || drops[1] != "ping" {
		t.Fatalf("drop events = %v, want [nosuch ping]", drops)
	}
}

// wireSchemas are the declarations every shipped protocol puts on the
// wire: the FS protocol, the membership probes, and the Paxos program.
func wireSchemas(tb testing.TB) []string {
	src, err := paxos.Files.ReadFile("paxos.olg")
	if err != nil {
		tb.Fatal(err)
	}
	return []string{boomfs.ProtocolDecls, membership.WireDecls, string(src)}
}

// seedValue is a well-typed value of kind k.
func seedValue(k overlog.Kind, addr string) overlog.Value {
	switch k {
	case overlog.KindBool:
		return overlog.Bool(true)
	case overlog.KindInt:
		return overlog.Int(1)
	case overlog.KindFloat:
		return overlog.Float(0.5)
	case overlog.KindAddr:
		return overlog.Addr(addr)
	case overlog.KindList:
		return overlog.List(overlog.Str("x"), overlog.Int(2))
	}
	return overlog.Str("s")
}

// FuzzWireFrames feeds arbitrary bytes through the receive path
// (readFrames) into a node carrying every shipped wire schema and the
// Paxos rules. Whatever decodes must never stop the node: its OnError
// fails the test. The corpus is seeded with one gob-encoded wireBatch
// per declared table, each holding one well-typed tuple.
func FuzzWireFrames(f *testing.F) {
	const addr = "fuzz:1"
	for _, src := range wireSchemas(f) {
		prog, err := overlog.Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		for _, d := range prog.Tables {
			vals := make([]overlog.Value, len(d.Cols))
			for i, c := range d.Cols {
				vals[i] = seedValue(c.Type, addr)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&wireBatch{Msgs: []WireMsg{
				{To: addr, Table: d.Name, Vals: vals, TraceID: "t1", SpanID: "s1"},
			}}); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}

	rt := overlog.NewRuntime(addr)
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		f.Fatal(err)
	}
	if err := rt.InstallSource(membership.WireDecls); err != nil {
		f.Fatal(err)
	}
	if err := paxos.Install(rt, addr, []string{addr, "fuzz:2", "fuzz:3"}, paxos.DefaultConfig()); err != nil {
		f.Fatal(err)
	}
	// A sentinel tuple queued behind each input's frames: once the node
	// steps it, it has stepped them.
	if err := rt.InstallSource(`event fuzz_done(N: int);`); err != nil {
		f.Fatal(err)
	}
	if err := rt.AddWatch("fuzz_done", "i"); err != nil {
		f.Fatal(err)
	}
	stepped := make(chan int64, 16)
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if ev.Insert && ev.Tuple.Table == "fuzz_done" {
			select {
			case stepped <- ev.Tuple.Vals[0].AsInt():
			default:
			}
		}
	})
	node := NewNode(rt, func(overlog.Envelope) error { return nil })
	failed := make(chan error, 1)
	node.OnError = func(err error) { failed <- err }
	tcp := &TCP{node: node, localAddr: addr, stats: &TCPStats{}, tracer: telemetry.NewTracer(0)}
	node.rejected = tcp.reject
	go node.Run()
	defer node.Stop()

	var seq int64
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = tcp.readFrames(bytes.NewReader(data), "fuzz:peer")
		seq++
		node.Deliver(overlog.NewTuple("fuzz_done", overlog.Int(seq)))
		timeout := time.After(10 * time.Second)
		for {
			select {
			case n := <-stepped:
				if n == seq {
					return
				}
			case err := <-failed:
				t.Fatalf("node stopped on fuzzed frames: %v", err)
			case <-timeout:
				t.Fatal("node did not step the fuzzed frames")
			}
		}
	})
}
