// Package rsm is the replicated state machine over the Overlog Paxos
// log: it turns internal/paxos's decided(Slot, Cmd) — complete,
// identical on every live replica, but learned in any order and
// at-least-once per request — into apply(S, Id, Src, Cmd), one command
// per step, in slot order, once per request id. A service encodes its
// commands as [Id, Src, ...] lists, submits them as paxos_request, and
// writes its state transitions as rules over apply. The replicated
// BOOM-FS master and the KV store are its two services.
package rsm

import (
	"embed"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
)

// Files holds the package's Overlog program.
//
//go:embed rsm.olg
var Files embed.FS

//go:embed rsm.olg
var rules string

// seed starts the cursor at slot 0.
const seed = `applied("a", 0);`

// Install loads Paxos, the replay rules and then the service's rules
// onto a runtime.
func Install(rt *overlog.Runtime, self string, members []string, cfg paxos.Config, service string) error {
	if err := paxos.Install(rt, self, members, cfg); err != nil {
		return err
	}
	return install(rt, rules, seed, service)
}

// InstallRestarted is Install for a replica coming back from a crash:
// Paxos boots without leadership (paxos.InstallRestarted). The caller's
// restore of the durable tables then puts the cursor back where the
// crash left it; the cursor is a max column, so the restored row
// displaces the seed it dominates, and no rule fires on the seed.
func InstallRestarted(rt *overlog.Runtime, self string, members []string, cfg paxos.Config, service string) error {
	if err := paxos.InstallRestarted(rt, self, members, cfg); err != nil {
		return err
	}
	return install(rt, rules, seed, service)
}

func install(rt *overlog.Runtime, srcs ...string) error {
	for _, src := range srcs {
		if err := rt.InstallSource(src); err != nil {
			return err
		}
	}
	return nil
}

// LintSources is Paxos plus the replay rules as a three-replica
// deployment installs them; a service appends its own rules.
func LintSources() []string { return append(paxos.LintSources(), rules, seed) }

// LintUnits declares the analysis unit for this package.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{Name: "rsm", Groups: map[string][]string{"replica": LintSources()}}}
}
