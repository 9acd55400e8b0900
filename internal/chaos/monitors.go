package chaos

import (
	"fmt"
	"strings"

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

// invViolationDecl is shared verbatim by every monitor program; the
// runtime accepts identical redeclarations, so co-installed monitors
// agree on the schema.
const invViolationDecl = `
	table inv_violation(Inv: string, Node: addr, T: int, Detail: string) keys(0,1,3) durable;
`

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

// PaxosMonitorRules watch a Paxos replica. Placeholders: MONMS, GRACE.
//
// single-leader: every leader advertises (ballot-stamped) claims; a
// leader that keeps hearing another leader's claims beyond the grace
// window reports dual leadership. Ballot order settles who should have
// abdicated, but either way the overlap itself is the bug.
//
// log-agreement: every replica broadcasts its decided slots; a receiver
// holding a different command for the same slot has diverged — the
// replicated-state-machine contract is broken, no grace applies.
const PaxosMonitorRules = `
	program chaos_paxos_monitor;

	//lint:feed mon_claim mon_decided
	//lint:export inv_violation
` + invViolationDecl + `
	table mon_claim_seen(Other: addr, T: int) keys(0);
	table mon_dual_since(Other: addr, T: int) keys(0);

	event mon_claim(To: addr, From: addr, B: int);
	event mon_decided(To: addr, From: addr, Slot: int, Cmd: list);

	periodic inv_px_tick interval {{MONMS}};

	mc1 mon_claim(@N, Me, B) :- inv_px_tick(_, _), is_leader("l", true),
	        cur_ballot("b", B), replica(N, _), N != localaddr(), Me := localaddr();

	cs1 mon_claim_seen(From, now()) :- mon_claim(@Me, From, _);
	dl1 next mon_dual_since(From, now()) :- mon_claim(@Me, From, _),
	        is_leader("l", true), notin mon_dual_since(From, _);
	// The window closes when we abdicate, or when the other side goes
	// quiet (it abdicated, died, or got partitioned away — a partition
	// that also blocks its claims blocks this monitor by construction).
	dl2 delete mon_dual_since(F, T) :- inv_px_tick(_, _), mon_dual_since(F, T),
	        is_leader("l", false);
	dl3 delete mon_dual_since(F, T) :- inv_px_tick(_, _), mon_dual_since(F, T),
	        mon_claim_seen(F, T2), now() - T2 > 3 * {{MONMS}};
	iv1 inv_violation("single-leader", Me, now(), Detail) :- inv_px_tick(_, _),
	        mon_dual_since(F, T), is_leader("l", true), now() - T > {{GRACE}},
	        Me := localaddr(), Detail := "dual leadership with " + tostr(F);

	md1 mon_decided(@N, Me, S, Cmd) :- inv_px_tick(_, _), decided(S, Cmd),
	        replica(N, _), N != localaddr(), Me := localaddr();
	iv2 inv_violation("log-agreement", Me, now(), Detail) :-
	        mon_decided(@Me, From, S, Cmd), decided(S, Cmd2), Cmd != Cmd2,
	        Detail := "slot " + tostr(S) + ": " + tostr(Cmd2) +
	        " here vs " + tostr(Cmd) + " at " + tostr(From);
	// A decide for a slot this replica already decided differently is
	// caught on the wire as well.
	iv3 inv_violation("log-agreement", Me, now(), Detail) :-
	        decide_msg(@Me, S, Cmd), decided(S, Cmd2), Cmd != Cmd2,
	        Detail := "slot " + tostr(S) + ": decide " + tostr(Cmd) +
	        " conflicts with " + tostr(Cmd2);
`

// FSMonitorRules watch a BOOM-FS master replica. Placeholders: MONMS,
// GRACE, REPL.
//
// durability: the workload feeds mon_acked with every chunk whose write
// was acknowledged to a client; an acked, still-referenced chunk with
// no live replica must resurface within the grace window (a restarted
// holder's disk survives, or re-replication repairs it) or the ack was
// a lie.
//
// repl-floor: a referenced chunk below the replication floor while
// enough datanodes are live to fix it must be repaired within grace —
// that is the failure-handling contract of rule rr1.
const FSMonitorRules = `
	program chaos_fs_monitor;

	//lint:feed mon_acked
	//lint:export inv_violation
` + invViolationDecl + `
	table mon_acked(ChunkId: int, Bytes: int) keys(0) durable;
	table mon_lost_since(ChunkId: int, T: int) keys(0);
	table mon_under_since(ChunkId: int, T: int) keys(0);

	periodic inv_fs_tick interval {{MONMS}};

	ml1 next mon_lost_since(C, now()) :- inv_fs_tick(_, _), mon_acked(C, _),
	        fchunk(C, _, _), notin chunk_repl(C, _, _), notin mon_lost_since(C, _);
	ml2 delete mon_lost_since(C, T) :- inv_fs_tick(_, _), mon_lost_since(C, T),
	        chunk_repl(C, N, _), N > 0;
	ml3 delete mon_lost_since(C, T) :- inv_fs_tick(_, _), mon_lost_since(C, T),
	        notin fchunk(C, _, _);
	iv4 inv_violation("durability", Me, now(), Detail) :- inv_fs_tick(_, _),
	        mon_lost_since(C, T), now() - T > {{GRACE}}, Me := localaddr(),
	        Detail := "acked chunk " + tostr(C) + " has no live replica (lost since " +
	        tostr(T) + "ms)";

	mu1 next mon_under_since(C, now()) :- inv_fs_tick(_, _), fchunk(C, _, _),
	        chunk_repl(C, N, _), N < {{REPL}}, live_dn("live", All),
	        size(All) >= {{REPL}}, notin mon_under_since(C, _);
	mu2 delete mon_under_since(C, T) :- inv_fs_tick(_, _), mon_under_since(C, T),
	        chunk_repl(C, N, _), N >= {{REPL}};
	mu3 delete mon_under_since(C, T) :- inv_fs_tick(_, _), mon_under_since(C, T),
	        notin fchunk(C, _, _);
	// With fewer live datanodes than the floor the system cannot comply;
	// the clock restarts once repair becomes possible again.
	mu4 delete mon_under_since(C, T) :- inv_fs_tick(_, _), mon_under_since(C, T),
	        live_dn("live", All), size(All) < {{REPL}};
	mu5 delete mon_under_since(C, T) :- inv_fs_tick(_, _), mon_under_since(C, T),
	        notin live_dn("live", _);
	iv5 inv_violation("repl-floor", Me, now(), Detail) :- inv_fs_tick(_, _),
	        mon_under_since(C, T), now() - T > {{GRACE}}, Me := localaddr(),
	        Detail := "chunk " + tostr(C) + " under floor {{REPL}} (since " +
	        tostr(T) + "ms)";
`

func expand(src string, vars map[string]string) string {
	for k, v := range vars {
		src = strings.ReplaceAll(src, "{{"+k+"}}", v)
	}
	return src
}

func (m MonitorConfig) vars() map[string]string {
	return map[string]string{
		"MONMS": fmt.Sprintf("%d", m.TickMS),
		"GRACE": fmt.Sprintf("%d", m.GraceMS),
		"REPL":  fmt.Sprintf("%d", m.Repl),
	}
}

// InstallPaxosMonitor loads the Paxos invariant monitor onto a replica
// runtime (the protocol must already be installed).
func InstallPaxosMonitor(rt *overlog.Runtime, cfg MonitorConfig) error {
	if err := rt.InstallSource(expand(PaxosMonitorRules, cfg.vars())); err != nil {
		return fmt.Errorf("chaos: paxos monitor: %w", err)
	}
	return nil
}

// InstallFSMonitor loads the BOOM-FS invariant monitor onto a master
// runtime (the master rules must already be installed).
func InstallFSMonitor(rt *overlog.Runtime, cfg MonitorConfig) error {
	if err := rt.InstallSource(expand(FSMonitorRules, cfg.vars())); err != nil {
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
