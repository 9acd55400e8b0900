package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/rtfs"
	"repro/internal/transport"
)

const (
	liveTimeout = 10 * time.Second
	liveRetry   = 2 * time.Second // a slower op means the client rotated replicas
)

// liveFS is fs_live (one master) and fs_live_paxos (three replicated
// masters): real rtfs servers and clients over loopback TCP in this
// process, one goroutine per client, each a closed loop.
type liveFS struct {
	e        *env
	paxos    bool
	servers  []*rtfs.Server
	clients  []*rtfs.Client
	gens     []*fsGen
	seq      []int // ops issued per client, which is the client's request-id counter
	pcfg     paxos.Config
	echoUS   float64
	kindMS   map[string][]float64
	retries  int
	net0     netCounters
	net1     netCounters
	px0, px1 paxosState
	depthMax int
	inboxMax int
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		defer l.Close()
	}
	return addrs, nil
}

func newLiveFS(e *env, replicated bool) (inst instance, err error) {
	w := &liveFS{e: e, paxos: replicated,
		pcfg: paxos.Config{TickMS: 50, ElectTimeout: 300, BallotStride: 100, SyncMS: 200}}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	nClients := 2
	if runtime.NumCPU() < nClients {
		nClients = runtime.NumCPU()
	}
	nServers := 1
	if replicated {
		nServers = 3
	}
	addrs, err := freeAddrs(nServers + nClients)
	if err != nil {
		return nil, err
	}
	masters, clientAddrs := addrs[:nServers], addrs[nServers:]
	for _, addr := range masters {
		err := e.install(func() error {
			var s *rtfs.Server
			var err error
			if replicated {
				s, err = rtfs.StartReplicatedMaster(addr, masters, boomfs.DefaultConfig(), w.pcfg)
			} else {
				s, err = rtfs.StartMaster(addr, boomfs.DefaultConfig())
			}
			if err == nil {
				w.servers = append(w.servers, s)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if replicated {
		// Leader-first wiring: a client whose first replica is a
		// follower spends a whole Retry window on its first op.
		leader, err := w.waitLeader(10 * time.Second)
		if err != nil {
			return nil, err
		}
		masters = append(append([]string{}, masters[leader:]...), masters[:leader]...)
	}
	for _, addr := range clientAddrs {
		err := e.install(func() error {
			var c *rtfs.Client
			var err error
			if replicated {
				c, err = rtfs.NewReplicatedClient(addr, masters, liveTimeout, liveRetry)
			} else {
				c, err = rtfs.NewClient(addr, masters[0], liveTimeout)
			}
			if err == nil {
				w.clients = append(w.clients, c)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range w.clients {
		w.gens = append(w.gens, newFSGen(e.cfg.seed, i))
	}
	w.seq = make([]int, len(w.clients))

	if e.tr != nil {
		e.tr.live = true
		e.tr.tag = func(tp overlog.Tuple) string {
			if tp.Table == "request" || tp.Table == "fsreq" {
				return tp.Vals[1].AsString()
			}
			return ""
		}
		if replicated {
			e.tr.replicas = map[string]bool{}
			for _, s := range w.servers {
				e.tr.replicas[s.Addr] = true
			}
		}
		for _, s := range w.servers {
			e.tr.attach(s.Addr, s.Node.Runtime)
		}
		if w.echoUS, err = echoRTT(200); err != nil {
			return nil, err
		}
	}

	w.seq[0]++
	if err := w.clients[0].Mkdir("/load"); err != nil {
		return nil, err
	}
	if _, err := w.drive(e.warm(200), false); err != nil {
		return nil, err
	}
	return w, nil
}

// waitLeader polls the replicas until exactly one holds is_leader.
func (w *liveFS) waitLeader(limit time.Duration) (int, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		leader, n := -1, 0
		for i, s := range w.servers {
			s.Node.Runtime(func(rt *overlog.Runtime) {
				if len(rt.Table("is_leader").Match([]int{1}, []overlog.Value{overlog.Bool(true)})) > 0 {
					leader = i
					n++
				}
			})
		}
		if n == 1 {
			return leader, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0, fmt.Errorf("no single Paxos leader after %v", limit)
}

func applyOp(c *rtfs.Client, op fsOp) error {
	switch op.kind {
	case "create":
		return c.Create(op.path)
	case "mv":
		return c.Mv(op.path, op.arg)
	case "rm":
		return c.Rm(op.path)
	}
	ok, err := c.Exists(op.path)
	if err == nil && !ok {
		err = fmt.Errorf("exists %s: not found", op.path)
	}
	return err
}

// drive runs n ops on every client at once, each client a closed loop.
func (w *liveFS) drive(n int, timed bool) (runStats, error) {
	type perClient struct {
		lat, late []float64
		kinds     []string
		failed    int
		firstErr  error
	}
	out := make([]perClient, len(w.clients))
	var wg sync.WaitGroup
	for ci := range w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, g, pc, tr := w.clients[ci], w.gens[ci], &out[ci], w.e.tr
			var prevEnd time.Time
			for i := 0; i < n; i++ {
				op := g.next()
				w.seq[ci]++
				start := time.Now()
				if !prevEnd.IsZero() {
					pc.late = append(pc.late, float64(start.Sub(prevEnd).Nanoseconds())/1e6)
				}
				err := applyOp(c, op)
				prevEnd = time.Now()
				if err != nil {
					pc.failed++
					if pc.firstErr == nil {
						pc.firstErr = err
					}
					continue
				}
				pc.lat = append(pc.lat, float64(prevEnd.Sub(start).Nanoseconds())/1e6)
				pc.kinds = append(pc.kinds, op.kind)
				if timed && tr != nil {
					id := fmt.Sprintf("%s-%d", c.Addr, w.seq[ci])
					tr.opDone(id, op.kind, start.Sub(tr.t0).Nanoseconds(), prevEnd.Sub(tr.t0).Nanoseconds())
				}
			}
		}(ci)
	}
	wg.Wait()
	rs := runStats{attempted: n * len(w.clients)}
	for _, pc := range out {
		rs.failed += pc.failed
		rs.latMS = append(rs.latMS, pc.lat...)
		rs.lateMS = append(rs.lateMS, pc.late...)
		if pc.firstErr != nil && !timed {
			return rs, fmt.Errorf("warm-up op failed: %w", pc.firstErr)
		}
		if !timed {
			continue
		}
		if pc.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: first failed op: %v\n", w.e.cfg.workload, pc.firstErr)
		}
		for i, ms := range pc.lat {
			w.kindMS[pc.kinds[i]] = append(w.kindMS[pc.kinds[i]], ms)
			if ms > float64(liveRetry.Milliseconds()) {
				w.retries++
			}
		}
	}
	return rs, nil
}

func (w *liveFS) run() (runStats, error) {
	n := w.e.n(4000)
	if w.paxos {
		n = w.e.n(2000)
	}
	w.kindMS = map[string][]float64{}
	w.net0, w.px0 = w.netCounters(), w.paxosState()
	stop, sampled := make(chan struct{}), make(chan struct{})
	if w.e.tr == nil {
		close(sampled)
	} else {
		w.e.tr.opsTotal.Store(int64(n * len(w.clients)))
		go w.sampleDepths(stop, sampled)
	}
	rs, err := w.drive(n, true)
	close(stop)
	<-sampled
	w.net1, w.px1 = w.netCounters(), w.paxosState()
	return rs, err
}

// sampleDepths polls the gauges that have no counter — send-queue and
// inbox depth — every 5 ms of a traced run, keeping the maxima.
func (w *liveFS) sampleDepths(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			depth := 0
			for _, s := range w.servers {
				depth += s.TCP.QueueDepth()
				if d := s.Node.InboxDepth(); d > w.inboxMax {
					w.inboxMax = d
				}
			}
			for _, c := range w.clients {
				depth += c.Transport().QueueDepth()
			}
			if depth > w.depthMax {
				w.depthMax = depth
			}
		}
	}
}

// netCounters sums the boom_transport_* counters of every node's
// public registry.
type netCounters struct{ sent, bytes, flushes, drops float64 }

func (w *liveFS) netCounters() netCounters {
	var n netCounters
	get := func(r interface{ Get(string) float64 }) {
		n.sent += r.Get("boom_transport_sent_total")
		n.bytes += r.Get("boom_transport_sent_bytes_total")
		n.flushes += r.Get("boom_transport_flushes_total")
		n.drops += r.Get("boom_transport_send_errors_total") +
			r.Get("boom_transport_queue_drops_total") + r.Get("boom_transport_fault_drops_total")
	}
	for _, s := range w.servers {
		get(s.Reg)
	}
	for _, c := range w.clients {
		get(c.Reg)
	}
	return n
}

// paxosState reads the group's log length and highest promised ballot
// round from the replicas' tables.
type paxosState struct{ decided, round int64 }

func (w *liveFS) paxosState() paxosState {
	var st paxosState
	if !w.paxos {
		return st
	}
	for _, s := range w.servers {
		s.Node.Runtime(func(rt *overlog.Runtime) { st.observe(rt, w.pcfg.BallotStride) })
	}
	return st
}

func (st *paxosState) observe(rt *overlog.Runtime, stride int64) {
	if n := int64(rt.Table("decided").Len()); n > st.decided {
		st.decided = n
	}
	rt.Table("promised").Scan(func(tp overlog.Tuple) bool {
		if r := tp.Vals[1].AsInt() / stride; r > st.round {
			st.round = r
		}
		return true
	})
}

func (w *liveFS) check() error {
	// Every sampled surviving path resolves and every removed one does
	// not, asked through the clients like any other op.
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for ci := range w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = w.gens[ci].checkPaths(1000/len(w.clients), w.clients[ci].Exists)
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if w.paxos {
		if w.px1.round != w.px0.round {
			return fmt.Errorf("%d election(s) during the timed phase: run invalid", w.px1.round-w.px0.round)
		}
		return w.replicasAgree(5 * time.Second)
	}
	return nil
}

// replicasAgree waits for followers to replay the log, then compares
// the three file tables row for row.
func (w *liveFS) replicasAgree(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		dumps := make([]string, len(w.servers))
		for i, s := range w.servers {
			s.Node.Runtime(func(rt *overlog.Runtime) {
				var rows []string
				rt.Table("file").Scan(func(tp overlog.Tuple) bool {
					rows = append(rows, fmt.Sprint(tp.Vals))
					return true
				})
				sort.Strings(rows)
				dumps[i] = fmt.Sprint(rows)
			})
		}
		if dumps[0] == dumps[1] && dumps[1] == dumps[2] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica file tables differ after %v", limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (w *liveFS) layers(m map[string]float64, rs runStats, wallS float64) {
	ops := float64(rs.attempted - rs.failed)
	sent := w.net1.sent - w.net0.sent
	flushes := w.net1.flushes - w.net0.flushes
	m["transport.msgs_per_op"] = sent / ops
	if sent > 0 {
		m["transport.bytes_per_msg"] = (w.net1.bytes - w.net0.bytes) / sent
	}
	if flushes > 0 {
		m["transport.msgs_per_flush"] = sent / flushes
	}
	m["transport.flushes_per_op"] = flushes / ops
	m["transport.drops"] = w.net1.drops - w.net0.drops
	m["transport.queue_depth_max"] = float64(w.depthMax)
	m["transport.inbox_max"] = float64(w.inboxMax)
	m["transport.echo_rtt_us_p50"] = w.echoUS
	m["rtfs.op_ms_p99"] = quantile(rs.latMS, 0.99)
	m["rtfs.op_ms_max"] = quantile(rs.latMS, 1)
	m["rtfs.retries"] = float64(w.retries)
	for _, kind := range []string{"create", "exists", "mv", "rm"} {
		m["boomfs."+kind+"_ms_p50"] = quantile(w.kindMS[kind], 0.5)
	}
	if w.paxos {
		w.e.tr.paxosPerCommit(m, w.px1.decided-w.px0.decided)
		m["paxos.decided_end"] = float64(w.px1.decided)
		m["paxos.elections"] = float64(w.px1.round - w.px0.round)
	}
}

func (w *liveFS) close() {
	for _, c := range w.clients {
		c.Close()
	}
	for _, s := range w.servers {
		s.Close()
	}
}

// echoProgram answers a ping with a pong and logs the pong.
const echoProgram = `
	program echo;
	event ping(To: addr, From: addr, N: int);
	event pong(To: addr, N: int);
	table got(N: int) keys(0);
	e1 pong(@From, N) :- ping(@Me, From, N);
	e2 got(N) :- pong(@Me, N);
`

// echoRTT measures the wire floor under an rtfs op: two bare transport
// nodes with a one-rule ping/pong program, n round trips, median µs.
func echoRTT(n int) (float64, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return 0, err
	}
	got := make(chan struct{}, 1) // one ping is in flight at a time
	var nodes []*transport.Node
	var tcps []*transport.TCP
	defer func() {
		for i := range tcps {
			nodes[i].Stop()
			tcps[i].Close()
		}
	}()
	for i, addr := range addrs {
		rt := overlog.NewRuntime(addr)
		if err := rt.InstallSource(echoProgram); err != nil {
			return 0, err
		}
		if i == 0 {
			if err := rt.AddWatch("got", "i"); err != nil {
				return 0, err
			}
			rt.RegisterWatcher(func(ev overlog.WatchEvent) {
				if ev.Insert && ev.Tuple.Table == "got" {
					got <- struct{}{}
				}
			})
		}
		var tcp *transport.TCP
		node := transport.NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
		if tcp, err = transport.ListenTCP(node, addr); err != nil {
			return 0, err
		}
		nodes, tcps = append(nodes, node), append(tcps, tcp)
		go node.Run()
	}
	var us []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := tcps[0].Send(overlog.Envelope{To: addrs[1], Tuple: overlog.NewTuple("ping",
			overlog.Addr(addrs[1]), overlog.Addr(addrs[0]), overlog.Int(int64(i)))}); err != nil {
			return 0, err
		}
		select {
		case <-got:
		case <-time.After(liveTimeout):
			return 0, fmt.Errorf("echo: no pong for ping %d", i)
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return quantile(us, 0.5), nil
}
