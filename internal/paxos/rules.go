// Package paxos implements multi-instance Paxos in Overlog, the
// availability revision of BOOM Analytics: the paper replicated the
// BOOM-FS master by implementing "basic Paxos and the multi-Paxos
// optimizations" as Overlog rules in roughly fifty lines. Every replica
// runs the same rule set and plays all three roles (proposer, acceptor,
// learner); a stable leader admits client commands into consecutive log
// slots, and staggered timeouts elect a successor when it dies.
//
// The replicated state machine contract: `decided(Slot, Cmd)` grows
// identically on every live replica, in any order and at least once per
// request; internal/rsm replays it into a service's rules once per
// request, in slot order (the replicated BOOM-FS master and kvstore).
package paxos

import (
	"embed"
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
)

// Config tunes the protocol's timers (simulated milliseconds).
type Config struct {
	TickMS       int64 // heartbeat / retry period
	ElectTimeout int64 // base leader-death timeout (staggered by rank)
	BallotStride int64 // ballot arithmetic base; must exceed cluster size
	SyncMS       int64 // learner anti-entropy period
}

// DefaultConfig returns sensible simulation defaults.
func DefaultConfig() Config {
	return Config{TickMS: 300, ElectTimeout: 1200, BallotStride: 100, SyncMS: 1000}
}

// Files holds the package's Overlog program.
//
//go:embed paxos.olg
var Files embed.FS

//go:embed paxos.olg
var rules string

// Params maps cfg onto the params paxos.olg declares, by file name.
func (cfg Config) Params() map[string][]overlog.Param {
	return map[string][]overlog.Param{"paxos.olg": {
		{Name: "tick_ms", Value: overlog.Int(cfg.TickMS)},
		{Name: "elect_timeout_ms", Value: overlog.Int(cfg.ElectTimeout)},
		{Name: "stride", Value: overlog.Int(cfg.BallotStride)},
		{Name: "sync_ms", Value: overlog.Int(cfg.SyncMS)},
	}}
}

// Install loads the protocol onto a runtime with the given membership
// (sorted for rank assignment) and this node's initial role state.
func Install(rt *overlog.Runtime, self string, members []string, cfg Config) error {
	return install(rt, self, members, cfg, false)
}

// InstallRestarted is Install for a replica coming back from a crash:
// identical rules and membership, but the replica never boots believing
// it leads — leadership must be re-won through an election, after the
// cluster's Restart has restored the durable tables (see RestartSpec).
func InstallRestarted(rt *overlog.Runtime, self string, members []string, cfg Config) error {
	return install(rt, self, members, cfg, true)
}

func install(rt *overlog.Runtime, self string, members []string, cfg Config, restarted bool) error {
	if len(members) == 0 {
		return fmt.Errorf("paxos: empty membership")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	rank := -1
	for i, m := range sorted {
		if m == self {
			rank = i
		}
	}
	if rank < 0 {
		return fmt.Errorf("paxos: %s not in membership %v", self, members)
	}
	if err := rt.InstallSource(rules, cfg.Params()["paxos.olg"]...); err != nil {
		return err
	}
	return rt.InstallSource(seedFacts(rank, sorted, rank == 0 && !restarted))
}

// seedFacts renders the membership and initial role state installed on
// the replica with the given rank. Restarted replicas seed with
// leader=false regardless of rank: leadership is soft state.
func seedFacts(rank int, sorted []string, leader bool) string {
	var b strings.Builder
	for i, m := range sorted {
		fmt.Fprintf(&b, "replica(\"%s\", %d);\n", m, i)
	}
	fmt.Fprintf(&b, `quorum("q", %d);`+"\n", len(sorted)/2+1)
	fmt.Fprintf(&b, `promised("p", -1);`+"\n")
	fmt.Fprintf(&b, `cur_ballot("b", %d);`+"\n", rank)
	fmt.Fprintf(&b, `is_leader("l", %v);`+"\n", leader)
	fmt.Fprintf(&b, `leader_seen("t", 0);`+"\n")
	fmt.Fprintf(&b, `last_elect("t", 0);`+"\n")
	fmt.Fprintf(&b, `next_slot("s", 0);`+"\n")
	return b.String()
}

// LintSources is the protocol as a three-replica deployment installs
// it — the rules at their defaults plus replica 0's seed facts — for
// whole-program static analysis (cmd/boomlint). Other packages that
// co-install the protocol (kvstore, the replicated BOOM-FS master)
// reuse it in their own lint units.
func LintSources() []string {
	members := []string{"px:0", "px:1", "px:2"}
	return []string{rules, seedFacts(0, members, true)}
}

// LintUnits declares the analysis units for this package.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{
		Name:   "paxos",
		Groups: map[string][]string{"replica": LintSources()},
	}}
}

// Decided reads a replica's decided log as slot -> encoded command.
func Decided(rt *overlog.Runtime) map[int64][]overlog.Value {
	out := map[int64][]overlog.Value{}
	rt.Table("decided").Scan(func(tp overlog.Tuple) bool {
		out[tp.Vals[0].AsInt()] = tp.Vals[1].AsList()
		return true
	})
	return out
}

// IsLeader reads a replica's own belief about leadership.
func IsLeader(rt *overlog.Runtime) bool {
	tp, ok := rt.Table("is_leader").LookupKey(overlog.NewTuple("is_leader",
		overlog.Str("l"), overlog.Bool(false)))
	return ok && tp.Vals[1].AsBool()
}
