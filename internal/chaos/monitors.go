package chaos

import (
	_ "embed"
	"fmt"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// Invariant monitors are Overlog metaprogramming: rules installed next
// to the program under test that watch its relations and materialize
// violations into inv_violation tuples. The harness sweeps those into
// each node's sys::invariant catalog relation (the runtime twin of
// sys::lint) and fails the run.
//
// Safety invariants (log agreement) violate immediately; liveness-ish
// invariants (single leader, replication floor, durability) are
// eventually-true and get a grace window, since the system is *allowed*
// to be in the bad state while it converges.

var (
	//go:embed violation.olg
	invViolationDecl string
	//go:embed paxos_monitor.olg
	paxosMonitorRules string
	//go:embed fs_monitor.olg
	fsMonitorRules string
)

// MonitorConfig tunes the monitors (simulated milliseconds).
type MonitorConfig struct {
	TickMS  int64 // monitor evaluation period
	GraceMS int64 // window an eventually-true invariant may be false
	Repl    int   // replication floor for the FS monitor
}

// DefaultMonitorConfig matches the default scenario timings: grace
// comfortably exceeds failure-detector period + re-replication copy +
// heartbeat, so a healthy cluster never trips the floor monitors.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{TickMS: 1000, GraceMS: 15000, Repl: 2}
}

// Params maps m onto the params each monitor file declares, by file
// name.
func (m MonitorConfig) Params() map[string][]overlog.Param {
	tick := overlog.Param{Name: "mon_ms", Value: overlog.Int(m.TickMS)}
	grace := overlog.Param{Name: "grace_ms", Value: overlog.Int(m.GraceMS)}
	return map[string][]overlog.Param{
		"paxos_monitor.olg": {tick, grace},
		"fs_monitor.olg":    {tick, grace, {Name: "repl", Value: overlog.Int(int64(m.Repl))}},
	}
}

// InstallPaxosMonitor loads the Paxos invariant monitor onto a replica
// runtime (the protocol must already be installed).
func InstallPaxosMonitor(rt *overlog.Runtime, cfg MonitorConfig) error {
	if err := rt.InstallSource(paxosMonitorRules, cfg.Params()["paxos_monitor.olg"]...); err != nil {
		return fmt.Errorf("chaos: paxos monitor: %w", err)
	}
	return nil
}

// InstallFSMonitor loads the BOOM-FS invariant monitor onto a master
// runtime (the master rules must already be installed).
func InstallFSMonitor(rt *overlog.Runtime, cfg MonitorConfig) error {
	if err := rt.InstallSource(fsMonitorRules, cfg.Params()["fs_monitor.olg"]...); err != nil {
		return fmt.Errorf("chaos: fs monitor: %w", err)
	}
	return nil
}

// WrapSpec layers monitors onto a node's crash-restart spec: after the
// base spec rebuilds the node, install reinstalls the monitor programs.
// Their ledgers (acked chunks, already-raised violations) are declared
// durable, so the cluster's Restart carries them over from the previous
// incarnation: monitors are the tester's notebook, not state of the
// node under test, and a crash must not erase them.
func WrapSpec(base sim.NodeSpec, install func(*overlog.Runtime) error) sim.NodeSpec {
	return func(fresh *overlog.Runtime) ([]sim.Service, error) {
		svcs, err := base(fresh)
		if err != nil {
			return nil, err
		}
		return svcs, install(fresh)
	}
}
