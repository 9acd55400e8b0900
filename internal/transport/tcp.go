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
		Flushes:    reg.Counter("boom_transport_flushes_total", "batched envelope flushes"),
		Reconnects: reg.Counter("boom_transport_reconnects_total", "re-dials to previously connected peers"),
		Accepts:    reg.Counter("boom_transport_accepts_total", "inbound connections accepted"),
		FlushMsgs:  reg.Histogram("boom_transport_flush_msgs", "frames coalesced per flush", nil),
	}
}

// QueuePolicy decides what happens when a peer's send queue is full.
type QueuePolicy int

const (
	// DropOldest evicts the oldest queued frame to admit the new one —
	// the availability-over-everything choice: a slow peer loses its
	// backlog's head, the sender never stalls. Overlog protocols retry
	// (heartbeats re-fire, clients re-issue), so a bounded drop is a
	// delay, not a loss of correctness.
	DropOldest QueuePolicy = iota
	// BlockWithDeadline makes Send wait up to BlockTimeout for space,
	// then fail — backpressure propagates to the caller instead of the
	// queue growing without bound.
	BlockWithDeadline
)

func (p QueuePolicy) String() string {
	if p == BlockWithDeadline {
		return "block"
	}
	return "drop-oldest"
}

// QueueConfig bounds the per-peer send queue.
type QueueConfig struct {
	// Cap is the maximum number of frames queued per peer (default 1024).
	Cap int
	// MaxBatch caps how many frames one flush coalesces (default 128).
	MaxBatch int
	// Policy picks the overflow behaviour (default DropOldest).
	Policy QueuePolicy
	// BlockTimeout bounds a BlockWithDeadline wait (default 50ms).
	BlockTimeout time.Duration
}

// DefaultQueueConfig returns the production defaults.
func DefaultQueueConfig() QueueConfig {
	return QueueConfig{Cap: 1024, MaxBatch: 128, Policy: DropOldest, BlockTimeout: 50 * time.Millisecond}
}

func (q QueueConfig) withDefaults() QueueConfig {
	d := DefaultQueueConfig()
	if q.Cap <= 0 {
		q.Cap = d.Cap
	}
	if q.MaxBatch <= 0 {
		q.MaxBatch = d.MaxBatch
	}
	if q.BlockTimeout <= 0 {
		q.BlockTimeout = d.BlockTimeout
	}
	return q
}

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
	qcfg    QueueConfig
	stats   *TCPStats
	journal *telemetry.Journal
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
		qcfg:  DefaultQueueConfig(),
		stats: &TCPStats{}, done: make(chan struct{})}
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

// SetQueueConfig replaces the send-queue bounds. Call before traffic
// flows; existing peer queues keep the config they were created with.
func (t *TCP) SetQueueConfig(q QueueConfig) {
	t.mu.Lock()
	t.qcfg = q.withDefaults()
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

// SetTelemetry installs the metric bundle and event journal. Either
// may be nil; call before traffic flows for complete counts.
func (t *TCP) SetTelemetry(stats *TCPStats, j *telemetry.Journal) {
	t.mu.Lock()
	if stats != nil {
		t.stats = stats
	}
	t.journal = j
	t.mu.Unlock()
}

// SetTracer installs the span tracer consulted on every send and
// delivery; nil clears it. Sends take the pending hop the runtime
// step hook parked (telemetry.AttachTracer) — or stamp a fresh send
// span for direct client emissions that never crossed a step — and
// put its ID on the wire; deliveries record a recv span parented to
// it and mark it active so the next local rule-fire chains.
func (t *TCP) SetTracer(tr *telemetry.Tracer) {
	t.mu.Lock()
	t.tracer = tr
	t.mu.Unlock()
}

// Tracer returns the installed span tracer, or nil.
func (t *TCP) Tracer() *telemetry.Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracer
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
		if w := time.Until(p.until); w > 0 {
			info.BackoffMS = w.Milliseconds()
		}
		p.mu.Unlock()
		out = append(out, info)
	}
	return out
}

func (t *TCP) telemetry() (*TCPStats, *telemetry.Journal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats, t.journal
}

// LocalAddr returns the transport's listen address.
func (t *TCP) LocalAddr() string { return t.localAddr }

// Send enqueues the frame on the destination peer's bounded queue. It
// never blocks on the network: dialing, batching, and writing happen on
// the peer's writer goroutine. It returns an error when the frame was
// NOT queued — the peer is inside its dial-backoff window (fail fast,
// like the old transport), an injected fault dropped it, the queue
// overflowed under BlockWithDeadline, or the transport is closed.
// Under DropOldest the new frame is always admitted (nil), at the cost
// of the backlog's head.
func (t *TCP) Send(env overlog.Envelope) error {
	stats, journal := t.telemetry()
	trace := telemetry.TraceIDOf(env.Tuple)

	t.mu.Lock()
	faults := t.faults
	t.mu.Unlock()
	if faults != nil {
		if reason, drop := faults.check(t.localAddr, env.To); drop {
			stats.FaultDrops.Inc()
			journal.Record(telemetry.Event{Node: t.localAddr, Kind: "drop",
				Table: env.Tuple.Table, TraceID: trace, Detail: reason + " " + env.To})
			return fmt.Errorf("transport: send to %s: %s", env.To, reason)
		}
	}

	msg := WireMsg{To: env.To, Table: env.Tuple.Table, Vals: env.Tuple.Vals, TraceID: trace}
	if tr := t.Tracer(); tr != nil && trace != "" {
		span := tr.TakeHop(t.localAddr, trace, env.To)
		if span == "" {
			// Direct emission that never crossed a runtime step (a
			// client call, a relay) — stamp the send span here so the
			// remote recv still has a parent.
			now := time.Now().UnixMilli()
			span = tr.NextID(t.localAddr)
			tr.Record(telemetry.Span{
				TraceID: trace, SpanID: span,
				ParentID: tr.Active(t.localAddr, trace),
				Node:     t.localAddr, Kind: "send", Op: env.Tuple.Table,
				StartMS: now, EndMS: now, Detail: "to " + env.To,
			})
		}
		msg.SpanID = span
	}
	p := t.peer(env.To)
	if err := p.enqueue(msg, stats, journal); err != nil {
		return err
	}
	journal.Record(telemetry.Event{Node: t.localAddr, Kind: "send",
		Table: env.Tuple.Table, TraceID: trace, Detail: "to " + env.To})
	return nil
}

// peer returns (creating on first use) the queue for addr.
func (t *TCP) peer(addr string) *peerQ {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[addr]; ok {
		return p
	}
	p := &peerQ{addr: addr, t: t}
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

// enqueue admits one frame under the queue bound, applying the overflow
// policy. Fail-fast: inside the peer's dial-backoff window nothing is
// admitted — the peer is known-dead and the writer would only drop it.
func (p *peerQ) enqueue(msg WireMsg, stats *TCPStats, journal *telemetry.Journal) error {
	p.t.mu.Lock()
	qcfg := p.t.qcfg
	p.t.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("transport: send to %s: transport closed", p.addr)
	}
	if p.conn == nil && p.fails > 0 {
		if wait := time.Until(p.until); wait > 0 {
			p.drops++
			stats.SendErrors.Inc()
			journal.Record(telemetry.Event{Node: p.t.localAddr, Kind: "drop",
				Table: msg.Table, TraceID: msg.TraceID,
				Detail: fmt.Sprintf("dial %s: backing off %s after %d failure(s)",
					p.addr, wait.Round(time.Millisecond), p.fails)})
			return fmt.Errorf("transport: dial %s: backing off %s after %d failure(s)",
				p.addr, wait.Round(time.Millisecond), p.fails)
		}
	}
	if len(p.queue) >= qcfg.Cap {
		switch qcfg.Policy {
		case BlockWithDeadline:
			deadline := time.Now().Add(qcfg.BlockTimeout)
			timer := time.AfterFunc(qcfg.BlockTimeout, func() { p.cond.Broadcast() })
			for len(p.queue) >= qcfg.Cap && !p.closed && time.Now().Before(deadline) {
				p.cond.Wait()
			}
			timer.Stop()
			if p.closed {
				return fmt.Errorf("transport: send to %s: transport closed", p.addr)
			}
			if len(p.queue) >= qcfg.Cap {
				p.drops++
				stats.QueueDrops.Inc()
				stats.SendErrors.Inc()
				journal.Record(telemetry.Event{Node: p.t.localAddr, Kind: "drop",
					Table: msg.Table, TraceID: msg.TraceID,
					Detail: fmt.Sprintf("queue %s: full after %s (cap %d)", p.addr, qcfg.BlockTimeout, qcfg.Cap)})
				return fmt.Errorf("transport: send to %s: queue full (cap %d) after %s",
					p.addr, qcfg.Cap, qcfg.BlockTimeout)
			}
		default: // DropOldest
			victim := p.queue[0]
			copy(p.queue, p.queue[1:])
			p.queue = p.queue[:len(p.queue)-1]
			p.drops++
			stats.QueueDrops.Inc()
			journal.Record(telemetry.Event{Node: p.t.localAddr, Kind: "drop",
				Table: victim.Table, TraceID: victim.TraceID,
				Detail: fmt.Sprintf("queue %s: evicted oldest (cap %d)", p.addr, qcfg.Cap)})
		}
	}
	p.queue = append(p.queue, msg)
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
	for {
		p.t.mu.Lock()
		qcfg := p.t.qcfg
		t := p.t
		p.t.mu.Unlock()

		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
			return
		}
		n := len(p.queue)
		if n > qcfg.MaxBatch {
			n = qcfg.MaxBatch
		}
		batch := make([]WireMsg, n)
		copy(batch, p.queue[:n])
		rest := copy(p.queue, p.queue[n:])
		p.queue = p.queue[:rest]
		p.cond.Broadcast()
		p.mu.Unlock()

		stats, journal := t.telemetry()

		// Injected link latency: the writer sleeps, modeling a slow link
		// while preserving FIFO (everything behind waits too).
		t.mu.Lock()
		faults := t.faults
		t.mu.Unlock()
		if faults != nil {
			if d := faults.delay(t.localAddr, p.addr); d > 0 {
				time.Sleep(d)
			}
		}

		if err := p.ensureConn(t); err != nil {
			p.dropBatch(batch, stats, journal, "dial "+p.addr+": "+err.Error())
			continue
		}
		if err := p.writeBatch(batch); err != nil {
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
				p.conn, p.enc, p.bw = nil, nil, nil
			}
			p.mu.Unlock()
			p.dropBatch(batch, stats, journal, "write "+p.addr+": "+err.Error())
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

// ensureConn dials the peer if no connection is cached, honouring the
// per-peer backoff window.
func (p *peerQ) ensureConn(t *TCP) error {
	p.mu.Lock()
	if p.conn != nil {
		p.mu.Unlock()
		return nil
	}
	if wait := time.Until(p.until); p.fails > 0 && wait > 0 {
		p.mu.Unlock()
		return fmt.Errorf("backing off %s after %d failure(s)", wait.Round(time.Millisecond), p.fails)
	}
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
	if err != nil {
		p.noteDialFailure(boBase, boCap)
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
	p.conn = conn
	p.bw = bufio.NewWriterSize(&countingWriter{w: conn, t: t}, 64<<10)
	p.enc = gob.NewEncoder(p.bw)
	return nil
}

// noteDialFailure (p.mu held) advances the peer's backoff window:
// base·2^(fails-1) capped at boCap, then jittered into [d/2, d] so
// independent senders spread their re-dials.
func (p *peerQ) noteDialFailure(base, cap time.Duration) {
	if base <= 0 {
		return
	}
	p.fails++
	d := base << uint(p.fails-1)
	if d <= 0 || d > cap {
		d = cap
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	p.until = time.Now().Add(d)
}

// writeBatch encodes the batch and flushes it in one buffered write.
func (p *peerQ) writeBatch(batch []WireMsg) error {
	p.mu.Lock()
	enc, bw := p.enc, p.bw
	p.mu.Unlock()
	if enc == nil {
		return fmt.Errorf("connection lost")
	}
	if err := enc.Encode(&wireBatch{Msgs: batch}); err != nil {
		return err
	}
	return bw.Flush()
}

// dropBatch accounts a whole failed batch.
func (p *peerQ) dropBatch(batch []WireMsg, stats *TCPStats, journal *telemetry.Journal, detail string) {
	p.mu.Lock()
	p.drops += int64(len(batch))
	p.mu.Unlock()
	stats.SendErrors.Add(int64(len(batch)))
	for _, m := range batch {
		journal.Record(telemetry.Event{Node: p.t.localAddr, Kind: "drop",
			Table: m.Table, TraceID: m.TraceID, Detail: detail})
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
	}()
	dec := gob.NewDecoder(&countingReader{r: conn, t: t})
	for {
		var batch wireBatch
		if err := dec.Decode(&batch); err != nil {
			return
		}
		for _, msg := range batch.Msgs {
			t.deliverWire(msg, conn.RemoteAddr().String())
		}
	}
}

// deliverWire records one received frame and queues its tuple for the runtime.
func (t *TCP) deliverWire(msg WireMsg, from string) {
	stats, journal := t.telemetry()
	stats.Recv.Inc()
	trace := msg.TraceID
	tp := overlog.Tuple{Table: msg.Table, Vals: msg.Vals}
	if trace == "" {
		trace = telemetry.TraceIDOf(tp)
	}
	journal.Record(telemetry.Event{Node: t.localAddr, Kind: "recv",
		Table: msg.Table, TraceID: trace, Detail: "from " + from})
	if tr := t.Tracer(); tr != nil && trace != "" {
		now := time.Now().UnixMilli()
		id := tr.NextID(t.localAddr)
		tr.Record(telemetry.Span{
			TraceID: trace, SpanID: id, ParentID: msg.SpanID,
			Node: t.localAddr, Kind: "recv", Op: msg.Table,
			StartMS: now, EndMS: now, Detail: "from " + from,
		})
		tr.SetActive(t.localAddr, trace, id)
	}
	t.node.Deliver(tp)
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
}
