// Package membership is SWIM-lite failure detection as one Overlog
// unit: a round-robin probe, indirect probes through two relays,
// suspect → dead thresholds on the node clock, incarnation-ordered
// merging of piggybacked views, and refutation. The same rules run on
// the simulator and over TCP; applications read the member relation.
package membership

import (
	"embed"
	"fmt"
	"slices"
	"time"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
)

// Member states as the member relation ranks them: at an equal
// incarnation, the higher rank wins a merge.
const (
	Alive = iota
	Suspect
	Dead
)

// Config is what a deployment chooses; the probe timeouts, suspicion
// window and relay count are constants of the rules.
type Config struct {
	Seeds         []string          // initial contact points (usually the masters)
	SeedRoles     map[string]string // seed address → role, known before any exchange
	ProbeInterval time.Duration     // one peer is probed per interval (default 500ms)
}

func (c Config) probeMS() int64 {
	if ms := c.ProbeInterval.Milliseconds(); ms >= 2 {
		return ms
	}
	return 500
}

// DetectionBoundMS bounds how long after a node dies every survivor has
// it dead: a round-robin pass, the failed probe, a 3-probe suspicion.
func (c Config) DetectionBoundMS(members int) int64 {
	return c.probeMS() * int64(members+1+3)
}

// Files holds the package's Overlog programs, one per .olg file.
//
//go:embed *.olg
var Files embed.FS

//go:embed membership.olg
var rules string

// WireDecls is the unit's wire protocol alone, for nodes that do not
// run the unit.
//
//go:embed wire.olg
var WireDecls string

// Install loads the unit onto a runtime whose node plays role. The view
// starts as this node (its first tick restamps the incarnation) and the
// seeds, all alive at incarnation 0.
func Install(rt *overlog.Runtime, role string, cfg Config) error {
	if err := rt.InstallSource(rules, cfg.Params()["membership.olg"]...); err != nil {
		return err
	}
	return rt.InstallSource(seedFacts(rt.LocalAddr(), role, cfg))
}

// Params maps c onto the params membership.olg declares, by file name.
func (c Config) Params() map[string][]overlog.Param {
	return map[string][]overlog.Param{"membership.olg": {
		{Name: "half_ms", Value: overlog.Int(c.probeMS() / 2)},
		{Name: "suspect_ms", Value: overlog.Int(3 * c.probeMS())},
	}}
}

func seedFacts(self, role string, cfg Config) string {
	facts := fmt.Sprintf("member(%q, %q, 0, 0);\n", self, role)
	for _, s := range cfg.Seeds {
		if s != self {
			facts += fmt.Sprintf("member(%q, %q, 0, 0);\n", s, cfg.SeedRoles[s])
		}
	}
	return facts
}

// LintSources is the unit as a datanode seeded with one master installs it.
func LintSources() []string {
	cfg := Config{Seeds: []string{"m:0"}, SeedRoles: map[string]string{"m:0": "master"}}
	return []string{rules, "//lint:feed member\n" + seedFacts("dn:0", "datanode", cfg)}
}

// LintUnits declares the analysis unit for this package: a node that
// declares the wire protocol at boot (as every rtfs node does) and then
// runs the unit.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{Name: "membership", Groups: map[string][]string{
		"node": append([]string{WireDecls}, LintSources()...)}}}
}

// Row is one node's record of a peer.
type Row struct {
	Role       string
	State, Inc int64
}

// View reads a runtime's member relation by address.
func View(rt *overlog.Runtime) map[string]Row {
	out := map[string]Row{}
	rt.Table("member").Scan(func(tp overlog.Tuple) bool {
		out[tp.Vals[0].AsString()] = Row{tp.Vals[1].AsString(), tp.Vals[2].AsInt(), tp.Vals[3].AsInt()}
		return true
	})
	return out
}

// Count is how many members a runtime's view holds in state st.
func Count(rt *overlog.Runtime, st int64) int64 {
	return int64(len(rt.Table("member").Match([]int{2}, []overlog.Value{overlog.Int(st)})))
}

// Transitions counts state and incarnation changes: the fires of the
// rules that make them.
func Transitions(rt *overlog.Runtime) (n int64) {
	for _, p := range rt.RuleProfiles() {
		if p.Program == "membership" && slices.Contains([]string{"su1", "dd1", "mg1", "mg2"}, p.Rule) {
			n += p.Fires
		}
	}
	return n
}
