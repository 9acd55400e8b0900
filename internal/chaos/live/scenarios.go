package live

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/overlog"
	"repro/internal/rtfs"
	"repro/internal/telemetry"
)

// The live scenarios share their names, seed-derived schedules,
// protocol configs, monitor windows, setup and bodies with the
// simulated registry — one fault plan, two drivers. The fs scenario's
// client is the same boomfs.Client on rtfs's TCP link.

// Registry lists the scenarios that run over real TCP. fs-weak is
// omitted deliberately: it exists to prove the *deterministic* harness
// can fail and shrink, and live runs are not bit-replayable, so they
// shrink poorly. mr is sim-only (its modeled task timings have no live
// equivalent).
func Registry() []chaos.Scenario {
	return []chaos.Scenario{FS(), Paxos()}
}

// FS is the replicated-FS scenario on real sockets, driven through an
// rtfs failover client.
func FS() chaos.Scenario {
	base := chaos.ReplicatedFS()
	return chaos.Scenario{Name: base.Name, Schedule: base.Schedule, Run: runFS}
}

// Paxos is the bare-consensus scenario on real sockets.
func Paxos() chaos.Scenario {
	base := chaos.Paxos()
	return chaos.Scenario{Name: base.Name, Schedule: base.Schedule, Run: runPaxos}
}

func runFS(seed int64, sched chaos.Schedule) chaos.Outcome {
	lc := NewCluster(seed, telemetry.NewRegistry())
	defer lc.Close()
	out := chaos.Outcome{Tracer: lc.Tracer()}
	p := chaos.ReplicatedFSParams
	masters, addrs, err := p.Build(lc)
	if err != nil {
		out.Err = err
		return out
	}
	cl, err := joinClient(lc, func(addr string) (*rtfs.Client, error) {
		return rtfs.NewReplicatedClient(addr, addrs,
			time.Duration(p.Config().OpTimeoutMS)*time.Millisecond, chaos.FSRetryMS*time.Millisecond)
	})
	if err != nil {
		out.Err = err
		return out
	}
	defer cl.Close()

	out.Err = p.Workload(lc, cl.Client, sched, masters, func(v chaos.Violation) {
		v.Node = "client"
		lc.RunOn(masters[0], func(rt *overlog.Runtime) { chaos.RecordViolation(rt, v) })
	})
	if out.Err == nil {
		out.Violations, out.Err = chaos.Collect(lc, lc.Nodes()), lc.Err()
	}
	return out
}

// joinClient starts an FS client at a free port and joins it to the
// cluster's clock and fault plane: its sends suffer the same
// partitions and loss bursts as everyone else's.
func joinClient(lc *Cluster, start func(addr string) (*rtfs.Client, error)) (*rtfs.Client, error) {
	ln, err := reserveAddr()
	if err != nil {
		return nil, err
	}
	ln.Close()
	cl, err := start(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	cl.Transport().SetClock(lc.Clock())
	cl.Transport().SetFaults(lc.Faults())
	cl.Transport().SetDialBackoff(redialBase, redialCap)
	return cl, nil
}

func runPaxos(seed int64, sched chaos.Schedule) chaos.Outcome {
	lc := NewCluster(seed, telemetry.NewRegistry())
	defer lc.Close()
	out := chaos.Outcome{Tracer: lc.Tracer()}
	out.Violations, out.Err = chaos.RunPaxos(lc, seed, sched)
	return out
}
