// Package rtfs deploys BOOM-FS on real machines: the same Overlog
// programs and Go data-plane glue as the simulated deployment, driven
// by wall-clock nodes over the TCP transport. The boom command is a
// thin wrapper around this package.
package rtfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/boomfs"
	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Server is one running FS process (master or datanode).
type Server struct {
	Addr string
	Role string // "master" or "datanode"
	Node *transport.Node
	TCP  *transport.TCP

	// Telemetry: always collected (atomic counters, negligible cost);
	// served over HTTP only when ServeStatus is called.
	Reg    *telemetry.Registry
	Tracer *telemetry.Tracer
	Status *telemetry.Server

	sweepStop chan struct{}
}

// Close stops the node, its transport, and the status server.
func (s *Server) Close() {
	if s.Status != nil {
		s.Status.Close()
	}
	if s.sweepStop != nil {
		close(s.sweepStop)
		s.sweepStop = nil
	}
	s.Node.Stop()
	s.TCP.Close()
}

// ServeStatus starts the node's status HTTP server on addr (port 0
// picks one) exposing /metrics, /healthz, /debug/tables, /debug/rules,
// /debug/catalog, /debug/trace, /debug/lint and /debug/transport.
func (s *Server) ServeStatus(addr string) error {
	st, err := telemetry.Serve(addr, telemetry.Source{
		Role:        s.Role,
		Addr:        s.Addr,
		Registry:    s.Reg,
		Tracer:      s.Tracer,
		WithRuntime: s.Node.Runtime,
		Extra: map[string]http.HandlerFunc{
			"/debug/transport": s.transportDebug,
		},
	})
	if err != nil {
		return err
	}
	s.Status = st
	return nil
}

// StartMaster serves a BOOM-FS master at addr (host:port).
func StartMaster(addr string, cfg boomfs.Config) (*Server, error) {
	return StartMasterFrom(addr, cfg, "")
}

// StartMasterFrom serves a master, optionally restoring its metadata
// catalog from a checkpoint file first (the FsImage equivalent —
// Runtime.Snapshot output).
func StartMasterFrom(addr string, cfg boomfs.Config, restorePath string) (*Server, error) {
	rt := overlog.NewRuntime(addr)
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		return nil, err
	}
	if _, err := boomfs.NewMasterOnRuntime(rt, cfg); err != nil {
		return nil, err
	}
	if restorePath != "" {
		f, err := os.Open(restorePath)
		if err != nil {
			return nil, fmt.Errorf("rtfs: restore: %w", err)
		}
		defer f.Close()
		if err := rt.RestoreSnapshot(f); err != nil {
			return nil, fmt.Errorf("rtfs: restore: %w", err)
		}
	}
	return serve(rt, addr, "master", nil)
}

// Checkpoint writes the server's durable tables — the catalog, not its
// membership view — to path atomically and durably: write a temp file
// and sync it, rename it over path, then sync the directory so the
// rename itself survives a crash.
func (s *Server) Checkpoint(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var snapErr error
	s.Node.Runtime(func(rt *overlog.Runtime) {
		snapErr = rt.Snapshot(f)
	})
	if snapErr == nil {
		snapErr = f.Sync()
	}
	if cerr := f.Close(); snapErr == nil {
		snapErr = cerr
	}
	if snapErr != nil {
		os.Remove(tmp)
		return snapErr
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// StartDataNode serves a datanode at addr, heartbeating the master.
func StartDataNode(addr, master string, cfg boomfs.Config) (*Server, error) {
	rt := overlog.NewRuntime(addr)
	_, svc, err := boomfs.NewDataNodeOnRuntime(rt, master, cfg)
	if err != nil {
		return nil, err
	}
	return serve(rt, addr, "datanode", func(n *transport.Node) error {
		return n.AttachService(svc)
	})
}

// StartGossip installs the membership unit and its role's boomfs feed rule
// on the running node, with gauges over member rows and rule fires.
func (s *Server) StartGossip(opts membership.Config) error {
	feed := boomfs.MasterFeed
	if s.Role == "datanode" {
		feed = boomfs.DataNodeFeed
	}
	var err error
	s.Node.Runtime(func(rt *overlog.Runtime) {
		if err = membership.Install(rt, s.Role, opts); err == nil {
			err = rt.InstallSource(feed)
		}
	})
	if err != nil {
		return err
	}
	gauge := func(name, help string, fn func(rt *overlog.Runtime) int64) {
		s.Reg.GaugeFunc(name, help, func() float64 {
			var n int64
			s.Node.Runtime(func(rt *overlog.Runtime) { n = fn(rt) })
			return float64(n)
		})
	}
	for st, name := range []string{"alive", "suspect", "dead"} {
		gauge(fmt.Sprintf("boom_gossip_members{state=%q}", name), "membership view by state",
			func(rt *overlog.Runtime) int64 { return membership.Count(rt, int64(st)) })
	}
	gauge("boom_gossip_transitions_total", "membership state transitions observed", membership.Transitions)
	return nil
}

// transportDebug serves /debug/transport: per-peer queue depth, backoff
// and drops. The membership view is the member table in /debug/tables.
func (s *Server) transportDebug(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]interface{}{
		"addr":        s.Addr,
		"role":        s.Role,
		"queue_depth": s.TCP.QueueDepth(),
		"peers":       s.TCP.Peers(),
	})
}

func serve(rt *overlog.Runtime, addr, role string, setup func(*transport.Node) error) (*Server, error) {
	// Decode membership peers' probes even without running the unit.
	if err := rt.InstallSource(membership.WireDecls); err != nil {
		return nil, err
	}
	var tcp *transport.TCP
	node := transport.NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	if setup != nil {
		if err := setup(node); err != nil {
			return nil, err
		}
	}

	// Instrumentation attaches before the step loop starts, so every
	// hook runs without extra synchronization.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	telemetry.AttachRuntime(reg, "", rt)
	telemetry.AttachTracer(tracer, addr, rt, func() int64 { return tcp.Clock().Now().UnixMilli() })
	var instErr error
	switch role {
	case "master":
		instErr = boomfs.InstrumentMaster(reg, "", rt)
		telemetry.GaugeTables(reg, "", "boomfs_table_size", "catalog relation sizes",
			telemetry.SafeTableLen(node.Runtime), boomfs.MasterTables...)
	case "datanode":
		instErr = boomfs.InstrumentDataNode(reg, "", rt)
	}
	if instErr != nil {
		return nil, instErr
	}
	reg.GaugeFunc("boom_inbox_depth", "queued inbound tuples",
		func() float64 { return float64(node.InboxDepth()) })

	// Materialize the node's own lint findings into sys::lint before the
	// step loop starts, so rules and /debug/lint can query them.
	analysis.SelfLint(rt)

	var err error
	tcp, err = transport.ListenTCP(node, addr)
	if err != nil {
		return nil, err
	}
	tcp.SetTelemetry(transport.NewTCPStats(reg))
	tcp.SetTracer(tracer)
	tcp.RegisterQueueGauges(reg)
	go node.Run()
	return &Server{Addr: addr, Role: role, Node: node, TCP: tcp,
		Reg: reg, Tracer: tracer}, nil
}

// StartMetricSweep mirrors the server's registry into sys::metric
// tuples every intervalMS milliseconds (see telemetry.MetricSweep),
// so SLO rules installed on this node run against live series.
// Stopped by Close.
func (s *Server) StartMetricSweep(intervalMS int64, prefixes ...string) {
	if s.sweepStop != nil {
		return
	}
	stop := make(chan struct{})
	s.sweepStop = stop
	sweep := &telemetry.MetricSweep{Reg: s.Reg, Node: s.Addr, Prefixes: prefixes}
	go func() {
		tick := time.NewTicker(time.Duration(intervalMS) * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case t := <-tick.C:
				for _, tp := range sweep.Collect(t.UnixMilli()) {
					s.Node.Deliver(tp)
				}
			}
		}
	}()
}

// Client is a real-time FS client: it owns a node (to receive
// responses) and issues synchronous operations with wall deadlines.
type Client struct {
	Addr    string
	Master  string
	Timeout time.Duration

	// Masters, when non-empty, turns on replica failover: metadata ops
	// rotate through the list (see NewReplicatedClient). UseGateway
	// routes them through the replicated-master fsreq protocol; Retry
	// bounds one attempt against one replica.
	Masters    []string
	UseGateway bool
	Retry      time.Duration

	// Reg records client-observed op latency histograms
	// (boomfs_op_ms{op=...}). Tracer is the client's event ring: one
	// root span per op, whose request ID doubles as the trace ID, so
	// /debug/trace?id= on any node the op touched shows the same tree
	// the client started.
	Reg    *telemetry.Registry
	Tracer *telemetry.Tracer

	node      *transport.Node
	tcp       *transport.TCP
	seq       int64
	preferred int
}

// NewClient starts a client node at addr speaking to master.
func NewClient(addr, master string, timeout time.Duration) (*Client, error) {
	rt := overlog.NewRuntime(addr)
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		return nil, err
	}
	if err := rt.InstallSource(boomfs.ClientRules); err != nil {
		return nil, err
	}
	var tcp *transport.TCP
	node := transport.NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	telemetry.AttachRuntime(reg, "", rt)
	telemetry.AttachTracer(tracer, addr, rt, func() int64 { return tcp.Clock().Now().UnixMilli() })
	var err error
	tcp, err = transport.ListenTCP(node, addr)
	if err != nil {
		return nil, err
	}
	tcp.SetTelemetry(transport.NewTCPStats(reg))
	tcp.SetTracer(tracer)
	go node.Run()
	return &Client{Addr: addr, Master: master, Timeout: timeout,
		Reg: reg, Tracer: tracer, node: node, tcp: tcp}, nil
}

// startOpSpan opens the root span of one client op; the returned
// finish records it once the outcome is known. The span is marked
// active for the request's trace so the first outbound frame parents
// to it. No-op without a tracer.
func (c *Client) startOpSpan(id, op, path string) func(outcome string) {
	if c.Tracer == nil {
		return func(string) {}
	}
	span := c.Tracer.NextID(c.Addr)
	c.Tracer.SetActive(c.Addr, id, span)
	start := c.tcp.Clock().Now().UnixMilli()
	return func(outcome string) {
		c.Tracer.Record(telemetry.Span{TraceID: id, SpanID: span, Node: c.Addr,
			Kind: "op", Op: op, StartMS: start, EndMS: c.tcp.Clock().Now().UnixMilli(),
			Detail: path + " " + outcome})
	}
}

// Close stops the client.
func (c *Client) Close() {
	c.node.Stop()
	c.tcp.Close()
}

// Transport exposes the client's TCP transport, so a harness can wire
// the shared fault plane and dial backoff into it — the client is a
// cluster participant and suffers partitions and loss like any node.
func (c *Client) Transport() *transport.TCP { return c.tcp }

// poll checks done every 2 ms on the client's clock until it holds or
// d has passed, and reports whether it held.
func (c *Client) poll(d time.Duration, done func() bool) bool {
	clk := c.tcp.Clock()
	deadline := clk.Now().Add(d)
	for clk.Now().Before(deadline) {
		if done() {
			return true
		}
		clk.Sleep(2 * time.Millisecond)
	}
	return false
}

func (c *Client) nextReqID() string {
	c.seq++
	return fmt.Sprintf("%s-%d", c.Addr, c.seq)
}

// call issues one metadata op and waits for the response. Each op is
// one trace span: the request ID doubles as the trace ID that the
// master's and datanodes' event rings index.
func (c *Client) call(op, path, arg string) (*boomfs.Response, error) {
	clk := c.tcp.Clock()
	start := clk.Now()
	defer func() {
		c.Reg.Histogram(telemetry.L("boomfs_op_ms", "op", op),
			"client-observed metadata op latency (ms)", nil).
			Observe(float64(clk.Now().Sub(start).Nanoseconds()) / 1e6)
	}()
	if len(c.Masters) > 0 {
		return c.callReplicated(op, path, arg)
	}
	id := c.nextReqID()
	finish := c.startOpSpan(id, op, path)
	if err := c.tcp.Send(overlog.Envelope{To: c.Master, Tuple: overlog.NewTuple("request",
		overlog.Addr(c.Master), overlog.Str(id), overlog.Addr(c.Addr),
		overlog.Str(op), overlog.Str(path), overlog.Str(arg))}); err != nil {
		finish("send-error")
		return nil, err
	}
	var resp *boomfs.Response
	if c.poll(c.Timeout, func() bool { resp = c.pollResponse(id); return resp != nil }) {
		finish("ok")
		return resp, nil
	}
	finish("timeout")
	return nil, fmt.Errorf("rtfs: %s %s: timeout after %v", op, path, c.Timeout)
}

func (c *Client) callOK(op, path, arg string) (*boomfs.Response, error) {
	resp, err := c.call(op, path, arg)
	if err != nil {
		return nil, err
	}
	if !resp.Ok {
		return resp, &boomfs.OpError{Op: op, Path: path, Msg: resp.Err}
	}
	return resp, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.callOK("mkdir", path, "")
	return err
}

// Create creates an empty file.
func (c *Client) Create(path string) error {
	_, err := c.callOK("create", path, "")
	return err
}

// Exists reports whether a path resolves.
func (c *Client) Exists(path string) (bool, error) {
	resp, err := c.call("exists", path, "")
	if err != nil {
		return false, err
	}
	return resp.Ok, nil
}

// Ls lists a directory.
func (c *Client) Ls(path string) ([]string, error) {
	resp, err := c.callOK("ls", path, "")
	if err != nil {
		return nil, err
	}
	out := make([]string, len(resp.Result))
	for i, v := range resp.Result {
		out[i] = v.AsString()
	}
	return out, nil
}

// Rm removes a file or empty directory.
func (c *Client) Rm(path string) error {
	_, err := c.callOK("rm", path, "")
	return err
}

// Mv renames a file or empty directory.
func (c *Client) Mv(oldPath, newPath string) error {
	_, err := c.callOK("mv", oldPath, newPath)
	return err
}

// AddChunk allocates a new chunk for path, returning its id and the
// datanode placement chosen by the master.
func (c *Client) AddChunk(path string) (int64, []string, error) {
	resp, err := c.callOK("addchunk", path, "")
	if err != nil {
		return 0, nil, err
	}
	if len(resp.Result) < 2 {
		return 0, nil, errors.New("rtfs: addchunk returned no locations")
	}
	cid := resp.Result[0].AsInt()
	var locs []string
	for _, v := range resp.Result[1:] {
		locs = append(locs, v.AsString())
	}
	return cid, locs, nil
}

// WriteFile creates path and streams data through the chunk pipeline.
func (c *Client) WriteFile(path, data string, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = 64 << 10
	}
	if err := c.Create(path); err != nil {
		return err
	}
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		cid, locs, err := c.AddChunk(path)
		if err != nil {
			return err
		}
		if err := c.WriteChunk(cid, locs, data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// WriteChunk streams one chunk's bytes through the datanode pipeline
// and waits for every replica's ack.
func (c *Client) WriteChunk(cid int64, locs []string, data string) error {
	id := c.nextReqID()
	rest := make([]overlog.Value, 0, len(locs)-1)
	for _, l := range locs[1:] {
		rest = append(rest, overlog.Addr(l))
	}
	if err := c.tcp.Send(overlog.Envelope{To: locs[0], Tuple: overlog.NewTuple("dn_write",
		overlog.Addr(locs[0]), overlog.Str(id), overlog.Addr(c.Addr),
		overlog.Int(cid), overlog.Str(data), overlog.List(rest...))}); err != nil {
		return err
	}
	if c.poll(c.Timeout, func() bool {
		acks := 0
		c.node.Runtime(func(rt *overlog.Runtime) {
			acks = len(rt.Table("ack_log").Match([]int{0}, []overlog.Value{overlog.Str(id)}))
		})
		return acks >= len(locs)
	}) {
		return nil
	}
	return fmt.Errorf("rtfs: writechunk %d: ack timeout", cid)
}

// ReadFile fetches a file's contents.
func (c *Client) ReadFile(path string) (string, error) {
	resp, err := c.callOK("chunks", path, "")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, pair := range resp.Result {
		l := pair.AsList()
		if len(l) != 2 {
			return "", errors.New("rtfs: malformed chunks response")
		}
		cid := l[1].AsInt()
		locsResp, err := c.callOK("chunklocs", "", fmt.Sprintf("%d", cid))
		if err != nil {
			return "", err
		}
		data, err := c.readChunk(cid, locsResp.Result)
		if err != nil {
			return "", err
		}
		b.WriteString(data)
	}
	return b.String(), nil
}

func (c *Client) readChunk(cid int64, locs []overlog.Value) (string, error) {
	for _, loc := range locs {
		id := c.nextReqID()
		if err := c.tcp.Send(overlog.Envelope{To: loc.AsString(), Tuple: overlog.NewTuple("dn_read",
			overlog.Addr(loc.AsString()), overlog.Str(id), overlog.Addr(c.Addr),
			overlog.Int(cid))}); err != nil {
			continue
		}
		var data string
		var ok bool
		if c.poll(c.Timeout/2, func() (got bool) {
			c.node.Runtime(func(rt *overlog.Runtime) {
				tp, found := rt.Table("read_log").LookupKey(overlog.NewTuple("read_log",
					overlog.Str(id), overlog.Int(0), overlog.Str(""), overlog.Bool(false)))
				if found {
					got, data, ok = true, tp.Vals[2].AsString(), tp.Vals[3].AsBool()
				}
			})
			return got
		}) && ok {
			return data, nil
		}
	}
	return "", fmt.Errorf("rtfs: readchunk %d: no replica answered", cid)
}
