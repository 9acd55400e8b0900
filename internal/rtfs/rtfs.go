// Package rtfs deploys BOOM-FS on real machines: the same Overlog
// programs and Go data-plane glue as the simulated deployment, driven
// by wall-clock nodes over the TCP transport. The boom command is a
// thin wrapper around this package.
package rtfs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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

// Client is a real-time FS client: a boomfs.Client on a TCP link. It
// owns a node (to receive responses) and waits on its transport's
// clock. Reg holds its transport counters.
type Client struct {
	*boomfs.Client
	Reg  *telemetry.Registry
	link *tcpLink
}

// NewClient starts a client node at addr speaking to master; each op
// may take timeout.
func NewClient(addr, master string, timeout time.Duration) (*Client, error) {
	return newClient(addr, timeout, master)
}

func newClient(addr string, timeout time.Duration, masters ...string) (*Client, error) {
	cfg := boomfs.DefaultConfig()
	cfg.OpTimeoutMS = timeout.Milliseconds()
	rt := overlog.NewRuntime(addr)
	lk := &tcpLink{}
	fs, err := boomfs.NewClientOn(lk, rt, cfg, masters...)
	if err != nil {
		return nil, err
	}
	lk.node = transport.NewNode(rt, func(env overlog.Envelope) error { return lk.tcp.Send(env) })
	reg := telemetry.NewRegistry()
	telemetry.AttachRuntime(reg, "", rt)
	// The client's steps record into whichever ring its transport holds
	// at the time, so a harness that moves the transport onto its own
	// ring (SetTracer) moves the client's whole trace with it.
	rt.AddStepHook(func(st overlog.StepStats) { lk.Tracer().RecordStep(addr, st, lk.Now()) })
	if lk.tcp, err = transport.ListenTCP(lk.node, addr); err != nil {
		return nil, err
	}
	lk.tcp.SetTelemetry(transport.NewTCPStats(reg))
	lk.tcp.SetTracer(telemetry.NewTracer(0))
	go lk.node.Run()
	return &Client{Client: fs, Reg: reg, link: lk}, nil
}

// Tracer is the client's event ring: one root span per op, whose
// request ID doubles as the trace ID, so /debug/trace?id= on any node
// the op touched shows the same tree the client started. It is the
// ring its transport records into (Transport().SetTracer).
func (c *Client) Tracer() *telemetry.Tracer { return c.link.Tracer() }

// Close stops the client.
func (c *Client) Close() {
	c.link.node.Stop()
	c.link.tcp.Close()
}

// Transport exposes the client's TCP transport, so a harness can wire
// the shared fault plane and dial backoff into it — the client is a
// cluster participant and suffers partitions and loss like any node.
func (c *Client) Transport() *transport.TCP { return c.link.tcp }

// tcpLink is a client's link.Link over TCP. The clock and the ring are
// the transport's, read at each call, since a harness may replace them
// after the client starts.
type tcpLink struct {
	node *transport.Node
	tcp  *transport.TCP
}

// Send dials to first, so a peer that refuses fails the request now,
// then queues tp for it.
func (l *tcpLink) Send(to string, tp overlog.Tuple) error {
	if err := l.tcp.Dial(to); err != nil {
		return err
	}
	return l.tcp.Send(overlog.Envelope{To: to, Tuple: tp})
}

func (l *tcpLink) Now() int64 { return l.tcp.Clock().Now().UnixMilli() }

func (l *tcpLink) Tracer() *telemetry.Tracer { return l.tcp.Tracer() }

// Await checks cond under the node's lock, then every 2 ms on the
// client's clock, until it holds or the deadline has passed.
func (l *tcpLink) Await(cond func(*overlog.Runtime) bool, deadline int64) (bool, error) {
	clk := l.tcp.Clock()
	for {
		held := false
		l.node.Runtime(func(rt *overlog.Runtime) { held = cond(rt) })
		if held {
			return true, nil
		}
		if clk.Now().UnixMilli() >= deadline {
			return false, nil
		}
		clk.Sleep(2 * time.Millisecond)
	}
}
