package transport

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/overlog"
	"repro/internal/telemetry"
)

// WireMsg is one logical frame: a destination node address and one
// tuple. Node addresses double as TCP dial targets (host:port), so the
// Overlog location specifier is the routing table. TraceID carries the
// request-scoped trace identifier (when the tuple's table has a
// registered trace column) so a single logical operation can be
// correlated across every node it touches.
type WireMsg struct {
	To      string
	Table   string
	Vals    []overlog.Value
	TraceID string
	// SpanID names the sender-side send span this frame extends, so
	// the receiver's recv span can parent to it and the trace tree
	// stays connected across the socket. Empty when no tracer is
	// attached or the tuple carries no trace. Batched frames keep
	// their own SpanID through wireBatch exactly like TraceID.
	SpanID string
}

// wireBatch is what actually crosses the socket: every frame queued for
// one peer at flush time, written as a single gob value through a
// buffered writer — one syscall per flush instead of one per tuple.
// Per-connection FIFO is preserved (Msgs keeps queue order) and each
// frame keeps its own TraceID.
type wireBatch struct {
	Msgs []WireMsg
}

// TCPStats is the transport's metric bundle. All counters are
// nil-safe, so a zero TCPStats disables collection.
type TCPStats struct {
	Sent       *telemetry.Counter
	SentBytes  *telemetry.Counter
	Recv       *telemetry.Counter
	RecvBytes  *telemetry.Counter
	SendErrors *telemetry.Counter // failed dials + failed writes (drops)
	QueueDrops *telemetry.Counter // frames evicted/refused by the bounded send queue
	FaultDrops *telemetry.Counter // frames dropped by injected faults (partition/loss)
	Rejects    *telemetry.Counter // received frames the node's program cannot hold
	Flushes    *telemetry.Counter // batched writes (one per syscall-ish flush)
	Reconnects *telemetry.Counter // re-dials to a previously connected peer
	Accepts    *telemetry.Counter
	FlushMsgs  *telemetry.Histogram // frames coalesced per flush
}

// NewTCPStats registers the standard transport counters on reg.
func NewTCPStats(reg *telemetry.Registry) *TCPStats {
	return &TCPStats{
		Sent:       reg.Counter("boom_transport_sent_total", "frames sent to peers"),
		SentBytes:  reg.Counter("boom_transport_sent_bytes_total", "bytes written to peers"),
		Recv:       reg.Counter("boom_transport_recv_total", "frames received from peers"),
		RecvBytes:  reg.Counter("boom_transport_recv_bytes_total", "bytes read from peers"),
		SendErrors: reg.Counter("boom_transport_send_errors_total", "sends dropped on dial/write failure"),
		QueueDrops: reg.Counter("boom_transport_queue_drops_total", "frames dropped by the bounded send queue"),
		FaultDrops: reg.Counter("boom_transport_fault_drops_total", "frames dropped by injected faults"),
		Rejects:    reg.Counter("boom_transport_rejects_total", "received frames dropped: undeclared table, or wrong arity or types"),
		Flushes:    reg.Counter("boom_transport_flushes_total", "batched envelope flushes"),
		Reconnects: reg.Counter("boom_transport_reconnects_total", "re-dials to previously connected peers"),
		Accepts:    reg.Counter("boom_transport_accepts_total", "inbound connections accepted"),
		FlushMsgs:  reg.Histogram("boom_transport_flush_msgs", "frames coalesced per flush", nil),
	}
}

// queueCap bounds each peer's send queue. A full queue evicts its
// oldest frame to admit the new one: a slow peer loses its backlog's
// head and the sender never stalls. Overlog protocols retry (heartbeats
// re-fire, clients re-issue), so a bounded drop is a delay, not a loss
// of correctness. maxBatch caps how many frames one flush coalesces.
const (
	queueCap = 1024
	maxBatch = 128
)

// TCP is a mesh transport: it listens on the node's own address and
// lazily dials peers on first send. Every peer gets a bounded send
// queue drained by one writer goroutine that dials (with per-peer
// exponential backoff), coalesces queued frames into batched writes,
// and applies any injected link faults — so a stalled or dead peer
// costs bounded memory and never blocks the step loop.
type TCP struct {
	node      *Node
	ln        net.Listener
	localAddr string

	mu      sync.Mutex
	peers   map[string]*peerQ
	ever    map[string]bool // peers we have connected to at least once
	inbound map[net.Conn]bool
	boBase  time.Duration
	boCap   time.Duration
	qcap    int // queueCap; tests lower it to force an overflow
	stats   *TCPStats
	tracer  *telemetry.Tracer
	faults  *Faults
	done    chan struct{}
	wg      sync.WaitGroup
}

// peerQ is one peer's send state: a bounded frame queue plus the writer
// goroutine's connection and dial-backoff ledger. The mutex guards
// everything; writers signal readers through the cond.
//
// The dial-backoff state lives here — per peer, under the peer's own
// lock — because the old transport kept it in a transport-wide map
// guarded by the transport mutex, where a SetDialBackoff (or a reset
// on a concurrent successful dial) could interleave with another
// sender's fail-fast check on the same peer and briefly resurrect a
// cleared window (see TestTCPBackoffConcurrentSends).
type peerQ struct {
	addr string
	t    *TCP

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []WireMsg
	closed  bool
	conn    net.Conn
	enc     *gob.Encoder
	bw      *bufio.Writer
	key     string    // the connection's name on a virtual clock
	dialing bool      // a dial is in flight (ensureConn)
	counted int       // 1, or 0 while a slow-link wait stops frames counting as work
	fails   int       // consecutive dial failures
	until   time.Time // fail-fast window end
	drops   int64     // frames this peer dropped (queue + dial + write)
	flushes int64
	sent    int64
}

// ListenTCP starts serving the node at addr (which must equal the
// runtime's overlog address) and returns the transport. The returned
// Sender is already wired into node deliveries via Serve.
func ListenTCP(node *Node, addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{node: node, ln: ln, localAddr: addr,
		peers: map[string]*peerQ{}, ever: map[string]bool{},
		inbound: map[net.Conn]bool{},
		boBase:  50 * time.Millisecond, boCap: 5 * time.Second,
		qcap:  queueCap,
		stats: &TCPStats{}, done: make(chan struct{})}
	node.mu.Lock()
	node.rejected = t.reject
	node.mu.Unlock()
	go t.acceptLoop()
	return t, nil
}

// SetDialBackoff overrides the re-dial backoff window (base doubles per
// consecutive failure up to max). Zero base disables backoff; tests use
// tiny values to keep wall time down.
func (t *TCP) SetDialBackoff(base, max time.Duration) {
	t.mu.Lock()
	t.boBase, t.boCap = base, max
	t.mu.Unlock()
}

// SetFaults installs a fault-injection layer consulted on every send
// (partition/loss) and every flush (added link latency). Nil clears it.
// The same Faults value is shared by every node of a live chaos
// cluster, so one Partition call cuts both directions.
func (t *TCP) SetFaults(f *Faults) {
	t.mu.Lock()
	t.faults = f
	t.mu.Unlock()
}

// SetClock puts the transport and its node on clock c (nil: the wall
// clock). Like SetFaults, call it before traffic flows.
func (t *TCP) SetClock(c *Clock) { t.node.setClock(c) }

// Clock returns the clock the transport and its node read.
func (t *TCP) Clock() *Clock { return t.node.clk() }

// SetTelemetry installs the metric bundle (nil keeps the current one);
// call before traffic flows for complete counts.
func (t *TCP) SetTelemetry(stats *TCPStats) {
	if stats == nil {
		return
	}
	t.mu.Lock()
	t.stats = stats
	t.mu.Unlock()
}

// SetTracer installs the event ring the transport records into; nil
// clears it. It records every emission through the ring's wire helpers,
// as the simulator's network model does: a send (the hop the runtime
// step hook parked, telemetry.AttachTracer, when there is one) whose
// ID travels on the wire, a recv at the receiver for a traced frame,
// parented to that ID, and a drop for a frame lost on the way.
func (t *TCP) SetTracer(tr *telemetry.Tracer) {
	t.mu.Lock()
	t.tracer = tr
	t.mu.Unlock()
}

// Tracer returns the event ring SetTracer installed.
func (t *TCP) Tracer() *telemetry.Tracer {
	_, tr := t.telemetry()
	return tr
}

// RegisterQueueGauges exposes the transport's aggregate queue depth on
// reg (boom_transport_queue_depth). Separate from SetTelemetry because
// function gauges need the registry, not the stats bundle.
func (t *TCP) RegisterQueueGauges(reg *telemetry.Registry) {
	reg.GaugeFunc("boom_transport_queue_depth", "frames queued across peer send queues",
		func() float64 { return float64(t.QueueDepth()) })
}

// QueueDepth sums queued frames across every peer.
func (t *TCP) QueueDepth() int {
	t.mu.Lock()
	peers := make([]*peerQ, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	total := 0
	for _, p := range peers {
		p.mu.Lock()
		total += len(p.queue)
		p.mu.Unlock()
	}
	return total
}

// PeerInfo is one peer's queue/backoff snapshot (the /debug/transport
// endpoint's row).
type PeerInfo struct {
	Addr      string `json:"addr"`
	Queued    int    `json:"queued"`
	Connected bool   `json:"connected"`
	Fails     int    `json:"dial_fails"`
	BackoffMS int64  `json:"backoff_remaining_ms"`
	Sent      int64  `json:"sent"`
	Flushes   int64  `json:"flushes"`
	Drops     int64  `json:"drops"`
}

// Peers snapshots every peer's send state, sorted by address.
func (t *TCP) Peers() []PeerInfo {
	t.mu.Lock()
	addrs := make([]string, 0, len(t.peers))
	for a := range t.peers {
		addrs = append(addrs, a)
	}
	t.mu.Unlock()
	sort.Strings(addrs)
	out := make([]PeerInfo, 0, len(addrs))
	for _, a := range addrs {
		t.mu.Lock()
		p := t.peers[a]
		t.mu.Unlock()
		if p == nil {
			continue
		}
		p.mu.Lock()
		info := PeerInfo{Addr: a, Queued: len(p.queue), Connected: p.conn != nil,
			Fails: p.fails, Sent: p.sent, Flushes: p.flushes, Drops: p.drops}
		if w := p.until.Sub(t.Clock().Now()); w > 0 {
			info.BackoffMS = w.Milliseconds()
		}
		p.mu.Unlock()
		out = append(out, info)
	}
	return out
}

func (t *TCP) telemetry() (*TCPStats, *telemetry.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats, t.tracer
}

// nowMS reads the transport's clock for the event ring.
func (t *TCP) nowMS() int64 { return t.Clock().Now().UnixMilli() }

// drop records the loss of a frame whose send is already in the ring.
func (t *TCP) drop(tr *telemetry.Tracer, m WireMsg, detail string) {
	if tr != nil {
		tr.Event(t.localAddr, "drop", m.Table, m.TraceID, m.SpanID, t.nowMS(), detail)
	}
}

// LocalAddr returns the transport's listen address.
func (t *TCP) LocalAddr() string { return t.localAddr }

// Send enqueues the frame on the destination peer's bounded queue. It
// never blocks on the network: dialing, batching, and writing happen on
// the peer's writer goroutine. It returns an error when the frame was
// NOT queued — the peer is inside its dial-backoff window (fail fast,
// like the old transport), an injected fault dropped it, or the
// transport is closed. A full queue admits the new frame at the cost
// of the backlog's head.
func (t *TCP) Send(env overlog.Envelope) error {
	stats, tr := t.telemetry()
	msg := WireMsg{To: env.To, Table: env.Tuple.Table, Vals: env.Tuple.Vals,
		TraceID: telemetry.TraceIDOf(env.Tuple)}

	t.mu.Lock()
	faults := t.faults
	t.mu.Unlock()
	if faults != nil {
		if reason, drop := faults.check(t.localAddr, env.To); drop {
			stats.FaultDrops.Inc()
			t.sent(tr, &msg, reason+" "+env.To)
			return fmt.Errorf("transport: send to %s: %s", env.To, reason)
		}
	}
	return t.peer(env.To).enqueue(msg, stats, tr)
}

// sent records msg's emission in the ring, lost at the sender when
// lost is non-empty, and puts its send span's ID on the frame.
func (t *TCP) sent(tr *telemetry.Tracer, msg *WireMsg, lost string) {
	if tr != nil {
		msg.SpanID = tr.Sent(t.localAddr, msg.To, msg.TraceID, msg.Table, t.nowMS(), lost)
	}
}

// Dial connects to the peer at addr unless a connection is up, on the
// caller's goroutine, and returns the dial's error: inside the peer's
// backoff window, the one that opened it. A client calls it before a
// request, so a peer that refuses fails the request at once instead of
// after its timeout. The node's step loop never dials: its sends
// queue, and the peer's writer dials.
func (t *TCP) Dial(addr string) error {
	if err := t.peer(addr).ensureConn(t); err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return nil
}

// peer returns (creating on first use) the queue for addr.
func (t *TCP) peer(addr string) *peerQ {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[addr]; ok {
		return p
	}
	p := &peerQ{addr: addr, t: t, counted: 1}
	p.cond = sync.NewCond(&p.mu)
	select {
	case <-t.done:
		// Transport already closed: hand back a dead queue instead of
		// spawning a writer nothing will ever reap.
		p.closed = true
		return p
	default:
	}
	t.peers[addr] = p
	t.wg.Add(1)
	go p.writeLoop()
	return p
}

// enqueue admits one frame under the queue bound, evicting the oldest
// when the queue is full. Fail-fast: inside the peer's dial-backoff window nothing is
// admitted — the peer is known-dead and the writer would only drop it.
func (p *peerQ) enqueue(msg WireMsg, stats *TCPStats, tr *telemetry.Tracer) error {
	p.t.mu.Lock()
	qcap := p.t.qcap
	p.t.mu.Unlock()

	clk := p.t.Clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		err := fmt.Errorf("transport: send to %s: transport closed", p.addr)
		p.t.sent(tr, &msg, err.Error())
		return err
	}
	if p.conn == nil && p.fails > 0 {
		if wait := p.until.Sub(clk.Now()); wait > 0 {
			p.drops++
			stats.SendErrors.Inc()
			err := fmt.Errorf("transport: dial %s: backing off %s after %d failure(s)",
				p.addr, wait.Round(time.Millisecond), p.fails)
			p.t.sent(tr, &msg, err.Error())
			return err
		}
	}
	p.t.sent(tr, &msg, "")
	if len(p.queue) >= qcap {
		victim := p.queue[0]
		copy(p.queue, p.queue[1:])
		p.queue = p.queue[:len(p.queue)-1]
		clk.track(-p.counted)
		p.drops++
		stats.QueueDrops.Inc()
		p.t.drop(tr, victim, fmt.Sprintf("queue %s: evicted oldest (cap %d)", p.addr, qcap))
	}
	p.queue = append(p.queue, msg)
	clk.track(p.counted)
	p.cond.Broadcast()
	return nil
}

// writeLoop is the peer's single writer: it waits for queued frames,
// ensures a connection (dialing with exponential backoff), coalesces up
// to MaxBatch frames, and writes them as one gob value through one
// buffered flush. Write failures drop the batch (peers are unreliable
// by contract — Overlog protocols retry), close the connection, and let
// the next batch re-dial.
func (p *peerQ) writeLoop() {
	defer p.t.wg.Done()
	t := p.t
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
			t.Clock().track(-len(p.queue))
			p.queue = nil
			p.mu.Unlock()
			return
		}
		n := len(p.queue)
		if n > maxBatch {
			n = maxBatch
		}
		batch := make([]WireMsg, n)
		copy(batch, p.queue[:n])
		rest := copy(p.queue, p.queue[n:])
		p.queue = p.queue[:rest]
		p.cond.Broadcast()
		p.mu.Unlock()

		stats, tr := t.telemetry()
		clk := t.Clock()

		// Injected link latency: the writer sleeps, modeling a slow link
		// while preserving FIFO (everything behind waits too).
		t.mu.Lock()
		faults := t.faults
		t.mu.Unlock()
		if d := faults.delay(t.localAddr, p.addr); d > 0 {
			p.sleep(clk, d, len(batch))
		}

		if err := p.ensureConn(t); err != nil {
			// Counted before the work is released, so a virtual clock
			// cannot move past the drop before it is recorded.
			p.dropBatch(batch, stats, tr, "dial "+p.addr+": "+err.Error())
			clk.track(-len(batch))
			continue
		}
		if err := p.writeBatch(batch, clk); err != nil {
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
				p.conn, p.enc, p.bw = nil, nil, nil
			}
			p.mu.Unlock()
			p.dropBatch(batch, stats, tr, "write "+p.addr+": "+err.Error())
			continue
		}
		p.mu.Lock()
		p.sent += int64(len(batch))
		p.flushes++
		p.mu.Unlock()
		stats.Sent.Add(int64(len(batch)))
		stats.Flushes.Inc()
		stats.FlushMsgs.Observe(float64(len(batch)))
	}
}

// sleep waits out a slow link's delay d holding a batch of n frames,
// which, like those queued behind it, are no clock's work meanwhile.
func (p *peerQ) sleep(clk *Clock, d time.Duration, n int) {
	timer := clk.NewTimer(d)
	p.mu.Lock()
	p.counted = 0
	clk.track(-n - len(p.queue))
	p.mu.Unlock()
	select {
	case <-timer.C:
	case <-p.t.done:
	}
	p.mu.Lock()
	p.counted = 1
	clk.track(n + len(p.queue))
	p.mu.Unlock()
	timer.Stop()
}

// ensureConn dials the peer if no connection is cached, honouring the
// per-peer backoff window. One dial runs at a time: a second caller
// (the writer, or a client's Dial) waits for it and takes its result.
func (p *peerQ) ensureConn(t *TCP) error {
	p.mu.Lock()
	for p.dialing {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("transport closed")
	}
	if p.conn != nil && !t.Clock().hungUp(p.key) {
		p.mu.Unlock()
		return nil
	}
	// A peer that closed (crashed, restarted) swallows the next frame
	// written to it; a virtual clock knows at once, and redials. (On the
	// wall clock, watch has dropped such a connection already.)
	if p.conn != nil {
		p.conn.Close()
		p.conn, p.enc, p.bw = nil, nil, nil
	}
	if wait := p.until.Sub(t.Clock().Now()); p.fails > 0 && wait > 0 {
		p.mu.Unlock()
		return fmt.Errorf("backing off %s after %d failure(s)", wait.Round(time.Millisecond), p.fails)
	}
	p.dialing = true
	p.mu.Unlock()

	conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)

	t.mu.Lock()
	boBase, boCap := t.boBase, t.boCap
	wasEver := t.ever[p.addr]
	if err == nil {
		t.ever[p.addr] = true
	}
	stats := t.stats
	t.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.dialing = false
	p.cond.Broadcast()
	if err != nil {
		p.noteDialFailure(t.Clock(), boBase, boCap)
		return err
	}
	if p.closed {
		conn.Close()
		return fmt.Errorf("transport closed")
	}
	p.fails, p.until = 0, time.Time{}
	if wasEver {
		stats.Reconnects.Inc()
	}
	p.conn, p.key = conn, conn.LocalAddr().String()+">"+p.addr
	p.bw = bufio.NewWriterSize(&countingWriter{w: conn, t: t}, 64<<10)
	p.enc = gob.NewEncoder(p.bw)
	t.wg.Add(1)
	go p.watch(conn)
	return nil
}

// watch reads conn, on which the peer never writes, until the peer
// hangs up or the connection is closed here, then drops it if it is
// still the peer's: the next batch redials instead of writing into a
// dead connection, which would take the frame without an error and
// lose it. Blocked in a read, watch is no virtual clock's work.
func (p *peerQ) watch(conn net.Conn) {
	defer p.t.wg.Done()
	_, _ = io.Copy(io.Discard, conn)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == conn {
		conn.Close()
		p.conn, p.enc, p.bw = nil, nil, nil
	}
}

// noteDialFailure (p.mu held) advances the peer's backoff window:
// base·2^(fails-1) capped at boCap, then jittered into [d/2, d] so
// independent senders spread their re-dials.
func (p *peerQ) noteDialFailure(clk *Clock, base, cap time.Duration) {
	if base <= 0 {
		return
	}
	p.fails++
	d := base << uint(p.fails-1)
	if d <= 0 || d > cap {
		d = cap
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	p.until = clk.Now().Add(d)
}

// writeBatch encodes the batch and flushes it in one buffered write,
// moving the frames' work onto the connection for the reader to release.
func (p *peerQ) writeBatch(batch []WireMsg, clk *Clock) error {
	p.mu.Lock()
	enc, bw, key := p.enc, p.bw, p.key
	p.mu.Unlock()
	if enc == nil {
		clk.track(-len(batch))
		return fmt.Errorf("connection lost")
	}
	clk.frames(key, len(batch))
	err := enc.Encode(&wireBatch{Msgs: batch})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		clk.hangup(key)
	}
	return err
}

// dropBatch accounts a whole failed batch.
func (p *peerQ) dropBatch(batch []WireMsg, stats *TCPStats, tr *telemetry.Tracer, detail string) {
	p.mu.Lock()
	p.drops += int64(len(batch))
	p.mu.Unlock()
	stats.SendErrors.Add(int64(len(batch)))
	for _, m := range batch {
		p.t.drop(tr, m, detail)
	}
}

// countingWriter / countingReader feed the byte counters. They fetch
// the stats bundle per call so SetTelemetry applies to live
// connections too.
type countingWriter struct {
	w io.Writer
	t *TCP
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		stats, _ := cw.t.telemetry()
		stats.SentBytes.Add(int64(n))
	}
	return n, err
}

type countingReader struct {
	r io.Reader
	t *TCP
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		stats, _ := cr.t.telemetry()
		stats.RecvBytes.Add(int64(n))
	}
	return n, err
}

func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		stats, _ := t.telemetry()
		stats.Accepts.Inc()
		t.mu.Lock()
		t.inbound[conn] = true
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		t.Clock().hangup(conn.RemoteAddr().String() + ">" + t.localAddr)
	}()
	_ = t.readFrames(&countingReader{r: conn, t: t}, conn.RemoteAddr().String())
}

// readFrames decodes wire batches from r and delivers every frame, until
// the stream ends or stops decoding; it returns that error. What a
// peer sends is untrusted: a frame the node's program cannot hold is
// dropped at the node's step (see Node.Run), not here.
func (t *TCP) readFrames(r io.Reader, from string) error {
	dec := gob.NewDecoder(r)
	for {
		var batch wireBatch
		if err := dec.Decode(&batch); err != nil {
			return err
		}
		for _, msg := range batch.Msgs {
			t.deliverWire(msg, from)
		}
		t.Clock().frames(from+">"+t.localAddr, -len(batch.Msgs))
	}
}

// deliverWire records one received frame and queues its tuple for the runtime.
func (t *TCP) deliverWire(msg WireMsg, from string) {
	stats, tr := t.telemetry()
	stats.Recv.Inc()
	trace := msg.TraceID
	tp := overlog.Tuple{Table: msg.Table, Vals: msg.Vals}
	if trace == "" {
		trace = telemetry.TraceIDOf(tp)
	}
	if tr != nil && trace != "" {
		tr.Received(t.localAddr, from, trace, msg.SpanID, msg.Table, t.nowMS())
	}
	t.node.Deliver(tp)
}

// reject accounts a received tuple the node's program cannot hold
// (called by the node's step loop, which drops it).
func (t *TCP) reject(tp overlog.Tuple, err error) {
	stats, tr := t.telemetry()
	stats.Rejects.Inc()
	t.drop(tr, WireMsg{Table: tp.Table, TraceID: telemetry.TraceIDOf(tp)}, err.Error())
}

// Close shuts down the listener, every peer writer, and every accepted
// inbound connection (so a closed node stops consuming frames — the
// sender sees its writes fail and counts the drop).
func (t *TCP) Close() {
	select {
	case <-t.done:
		return
	default:
		close(t.done)
	}
	t.ln.Close()
	t.mu.Lock()
	peers := make([]*peerQ, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	for conn := range t.inbound {
		conn.Close()
		delete(t.inbound, conn)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		if p.conn != nil {
			p.conn.Close()
			p.conn, p.enc, p.bw = nil, nil, nil
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	t.wg.Wait()
	t.Clock().hangup(">" + t.localAddr)
}
