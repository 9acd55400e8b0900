// Package rtmr deploys BOOM-MR on the wall clock over TCP: the same
// Overlog JobTracker rules and the same executor glue as the simulated
// engine, driven by transport nodes. Job definitions (Go closures)
// cannot cross process boundaries, so a real-time MR cluster lives
// within one process — which still exercises the full tuple protocol,
// scheduling rules, heartbeats and timers over real sockets, exactly
// how the simulator's multi-node clusters are structured.
package rtmr

import (
	"fmt"
	"time"

	"repro/internal/boommr"
	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Cluster is a real-time MR deployment: one JobTracker node and a set
// of TaskTracker nodes, all on TCP.
type Cluster struct {
	JT       string
	reg      *boommr.Registry
	cfg      boommr.MRConfig
	jtNode   *transport.Node
	servers  []*server
	nextJob  int64
	trackers []*boommr.TaskTracker
}

type server struct {
	addr   string
	role   string
	node   *transport.Node
	tcp    *transport.TCP
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	status *telemetry.Server
}

func (s *server) close() {
	if s.status != nil {
		s.status.Close()
	}
	s.node.Stop()
	s.tcp.Close()
}

// Start brings up a JobTracker at jtAddr and task trackers at ttAddrs.
func Start(jtAddr string, ttAddrs []string, policy boommr.Policy, cfg boommr.MRConfig) (*Cluster, error) {
	cl := &Cluster{JT: jtAddr, reg: boommr.NewRegistry(), cfg: cfg}

	// Programs install before the node's loop starts: a live runtime is
	// only touched through the node's mutex.
	jtRT := overlog.NewRuntime(jtAddr)
	if err := installJobTracker(jtRT, policy, cfg); err != nil {
		return nil, err
	}
	jtSrv, err := serveRuntime(jtRT, jtAddr, "jobtracker", nil)
	if err != nil {
		return nil, err
	}
	cl.jtNode = jtSrv.node
	cl.servers = append(cl.servers, jtSrv)
	boommr.InstrumentJobTrackerGauges(jtSrv.reg, "", jtSrv.node.Runtime)

	for _, addr := range ttAddrs {
		rt := overlog.NewRuntime(addr)
		tt, svc, err := boommr.NewTaskTrackerOnRuntime(rt, jtAddr, cfg, cl.reg)
		if err != nil {
			cl.Close()
			return nil, err
		}
		srv, err := serveRuntime(rt, addr, "tasktracker", func(n *transport.Node) error {
			return n.AttachService(svc)
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.servers = append(cl.servers, srv)
		cl.trackers = append(cl.trackers, tt)
	}
	return cl, nil
}

func serveRuntime(rt *overlog.Runtime, addr, role string, setup func(*transport.Node) error) (*server, error) {
	var tcp *transport.TCP
	node := transport.NewNode(rt, func(env overlog.Envelope) error { return tcp.Send(env) })
	if setup != nil {
		if err := setup(node); err != nil {
			return nil, err
		}
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	telemetry.AttachRuntime(reg, "", rt)
	telemetry.AttachTracer(tracer, addr, rt, func() int64 { return time.Now().UnixMilli() })
	if role == "jobtracker" {
		if err := boommr.InstrumentJobTracker(reg, "", rt); err != nil {
			return nil, err
		}
	}
	var err error
	tcp, err = transport.ListenTCP(node, addr)
	if err != nil {
		return nil, err
	}
	tcp.SetTelemetry(transport.NewTCPStats(reg))
	tcp.SetTracer(tracer)
	// Materialize the node's own lint findings into sys::lint before the
	// step loop starts, so rules and /debug/lint can query them.
	analysis.SelfLint(rt)
	go node.Run()
	return &server{addr: addr, role: role, node: node, tcp: tcp,
		reg: reg, tracer: tracer}, nil
}

// ServeStatus starts status HTTP servers for every node: the
// JobTracker at jtStatus (port 0 picks one) and each TaskTracker on an
// ephemeral port. It returns the bound URLs in node order.
func (c *Cluster) ServeStatus(jtStatus string) ([]string, error) {
	var urls []string
	for i, s := range c.servers {
		addr := "127.0.0.1:0"
		if i == 0 && jtStatus != "" {
			addr = jtStatus
		}
		st, err := telemetry.Serve(addr, telemetry.Source{
			Role:        s.role,
			Addr:        s.addr,
			Registry:    s.reg,
			Tracer:      s.tracer,
			WithRuntime: s.node.Runtime,
		})
		if err != nil {
			return urls, err
		}
		s.status = st
		urls = append(urls, st.URL())
	}
	return urls, nil
}

// JTRegistry exposes the JobTracker's metrics registry (tests, demos).
func (c *Cluster) JTRegistry() *telemetry.Registry { return c.servers[0].reg }

// installJobTracker mirrors boommr.NewJobTracker's program set on a
// bare runtime.
func installJobTracker(rt *overlog.Runtime, policy boommr.Policy, cfg boommr.MRConfig) error {
	return boommr.InstallJobTrackerPrograms(rt, policy, cfg)
}

// Close stops every node.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.close()
	}
}

// Trackers exposes the tracker handles (straggler injection in tests).
func (c *Cluster) Trackers() []*boommr.TaskTracker { return c.trackers }

// NewJobID allocates a job id.
func (c *Cluster) NewJobID() int64 {
	c.nextJob++
	return c.nextJob
}

// Submit registers a job and streams its tasks to the scheduler.
func (c *Cluster) Submit(j *boommr.Job) {
	c.reg.Register(j)
	c.jtNode.Deliver(overlog.NewTuple("job_submit",
		overlog.Addr(c.JT), overlog.Int(j.ID),
		overlog.Int(int64(j.NumMap())), overlog.Int(int64(j.NumRed))))
	for t := 0; t < j.NumMap(); t++ {
		c.jtNode.Deliver(overlog.NewTuple("task_submit",
			overlog.Addr(c.JT), overlog.Int(j.ID), overlog.Int(int64(t)), overlog.Str("map")))
	}
	for t := 0; t < j.NumRed; t++ {
		c.jtNode.Deliver(overlog.NewTuple("task_submit",
			overlog.Addr(c.JT), overlog.Int(j.ID), overlog.Int(int64(j.NumMap()+t)), overlog.Str("reduce")))
	}
}

// Wait blocks on the wall clock until the job completes or timeout.
func (c *Cluster) Wait(jobID int64, timeout time.Duration) (bool, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		state := ""
		c.jtNode.Runtime(func(rt *overlog.Runtime) {
			tp, ok := rt.Table("job").LookupKey(overlog.NewTuple("job",
				overlog.Int(jobID), overlog.Int(0), overlog.Int(0), overlog.Int(0), overlog.Str("")))
			if ok {
				state = tp.Vals[4].AsString()
			}
		})
		if state == "done" {
			return true, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false, fmt.Errorf("rtmr: job %d timed out", jobID)
}
