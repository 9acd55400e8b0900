// Package membership is SWIM-lite failure detection as one Overlog
// unit: a round-robin probe, indirect probes through two relays,
// suspect → dead thresholds on the node clock, incarnation-ordered
// merging of piggybacked views, and refutation. The same rules run on
// the simulator and over TCP; applications read the member relation.
package membership

import (
	"fmt"
	"slices"
	"strings"
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

// Rules is the protocol; placeholders HALF (the tick, half a probe
// interval) and SUSPECT (the suspicion window). A probe starts every
// other tick and times out at the next two; its age is compared with
// the midpoints between ticks, so a late wall-clock tick still counts.
const Rules = `
	program membership;

	//lint:export member
	//lint:ordered mb_view a merge keeps the highest (Inc, State) per address in any arrival order

	table member(Addr: addr, Role: string, State: int, Inc: int) keys(0);
	table mb_probe(K: string, Target: addr, Seq: int, T: int) keys(0);
	table mb_since(Addr: addr, T: int) keys(0);
	table mb_live(K: string, Peers: list) keys(0);
	table mb_dead(K: string, Peers: list) keys(0);
	event mb_send(To: addr, Kind: string, Target: addr, Seq: int, Origin: addr);` + wire + `
	periodic mb_tick interval {{HALF}};

	// The first tick stamps this node's incarnation with its clock, so a
	// restart on the sim's global clock outranks its old record.
	in1 member(Me, R, 0, T) :- mb_tick(0, T), Me := localaddr(), member(Me, R, _, _);

	// The probe rotation (non-dead peers, by address) and the dead. The
	// rules reading them defer their heads: answers update member.
	lv1 mb_live("l", setof<A>) :- member(A, _, S, _), S < 2, A != localaddr();
	lv2 mb_dead("d", setof<A>) :- member(A, _, 2, _);
	pr1 next mb_probe("p", Tg, N, T) :- mb_tick(N, T), N % 2 == 0, mb_live("l", L),
	        Tg := toaddr(nth(L, (N / 2) % size(L)));
	pr2 mb_send(Tg, "ping", Tg, S, "") :- mb_probe("p", Tg, S, _);
	// First timeout: two relays ping the target for us.
	pr3 next mb_send(R, "ping_req", Tg, S, "") :- mb_tick(_, _), mb_probe("p", Tg, S, T),
	        now() - T > {{HALF}} / 2, now() - T < 3 * {{HALF}} / 2, mb_live("l", L),
	        Rs := pickk(ldiff(L, [Tg]), 2, hash(Tg) + S),
	        member(R, _, 0, _), member(Rs, R) == true;
	// Second timeout: suspect; unrefuted for SUSPECT ms: dead.
	su1 member(Tg, R, 1, I) :- mb_tick(_, _), mb_probe("p", Tg, _, T),
	        now() - T > 3 * {{HALF}} / 2, now() - T < 5 * {{HALF}} / 2, member(Tg, R, 0, I);
	sv1 mb_since(A, now()) :- member(A, _, 1, _);
	dd1 member(A, R, 2, I) :- mb_tick(_, _), member(A, R, 1, I), mb_since(A, T),
	        now() - T >= {{SUSPECT}};
	// Every eighth probe also pings a dead peer, so the halves of a
	// healed partition find each other again.
	ae1 next mb_send(D, "ping", D, N, "") :- mb_tick(N, _), N % 16 == 0, mb_dead("d", L),
	        D := toaddr(nth(L, (N / 16) % size(L)));

	// Every message carries the sender's whole view as rows.
	sd1 mb_msg(@To, Me, K, Tg, S, O) :- mb_send(To, K, Tg, S, O), Me := localaddr();
	sd2 mb_view(@To, A, R, St, I) :- mb_send(To, _, _, _, _), member(A, R, St, I);

	// Pings are acked; a relay pings for the requester and forwards the
	// target's ack to it (Origin names the prober).
	rc1 mb_send(F, "ack", Me, S, O) :- mb_msg(@Me, F, "ping", _, S, O);
	rc2 mb_send(Tg, "ping", Tg, S, F) :- mb_msg(@Me, F, "ping_req", Tg, S, _);
	rc3 mb_send(O, "ack", Tg, S, "") :- mb_msg(@Me, _, "ack", Tg, S, O), O != "";
	ak1 delete mb_probe("p", Tg, S, T) :- mb_msg(@Me, _, "ack", Tg, S, ""), mb_probe("p", Tg, S, T);

	// Merge: a higher incarnation wins; at an equal one dead beats
	// suspect beats alive. A new peer is added a step later (the add
	// cannot read its own absence).
	mg1 member(A, R, S, I) :- mb_view(@Me, A, R, S, I), A != Me, member(A, _, S0, I0),
	        or(I > I0, and(I == I0, S > S0));
	mg2 next member(A, R, S, I) :- mb_view(@Me, A, R, S, I), A != Me, notin member(A, _, _, _);
	// Refutation: told it is suspect or dead at its own incarnation or
	// later, a node replaces its record with a higher one.
	rf1 member(Me, R, 0, I + 1) :- mb_view(@Me, Me, _, S, I), S > 0, member(Me, R, _, I0), I >= I0;
`

// SoftTables are the unit's persistent tables, which checkpoints skip:
// peers rebuild them, and a stored copy would hold a dead clock's stamps.
var SoftTables = []string{"member", "mb_probe", "mb_since", "mb_live", "mb_dead"}

// wire is the unit's wire protocol: a message, and the sender's view.
const wire = `
	event mb_msg(To: addr, From: addr, Kind: string, Target: addr, Seq: int, Origin: addr);
	event mb_view(To: addr, Addr: addr, Role: string, State: int, Inc: int);
`

// WireDecls is the wire protocol alone, for nodes that do not run the
// unit: a peer's probe is then dropped, not an undeclared-table error.
const WireDecls = "program membership_wire;" + wire

// Install loads the unit onto a runtime whose node plays role. The view
// starts as this node (its first tick restamps the incarnation) and the
// seeds, all alive at incarnation 0.
func Install(rt *overlog.Runtime, role string, cfg Config) error {
	if err := rt.InstallSource(cfg.rules()); err != nil {
		return err
	}
	return rt.InstallSource(seedFacts(rt.LocalAddr(), role, cfg))
}

func (c Config) rules() string {
	return strings.NewReplacer("{{HALF}}", fmt.Sprint(c.probeMS()/2),
		"{{SUSPECT}}", fmt.Sprint(3*c.probeMS())).Replace(Rules)
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
	return []string{cfg.rules(), "//lint:feed member\n" + seedFacts("dn:0", "datanode", cfg)}
}

// LintUnits declares the analysis unit for this package.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{Name: "membership", Groups: map[string][]string{"node": LintSources()}}}
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
