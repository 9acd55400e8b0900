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

// rules is Rules with cfg's timers filled in.
func (cfg Config) rules() string {
	return strings.NewReplacer(
		"{{PXTICK}}", fmt.Sprint(cfg.TickMS),
		"{{ELTIMEOUT}}", fmt.Sprint(cfg.ElectTimeout),
		"{{STRIDE}}", fmt.Sprint(cfg.BallotStride),
		"{{SYNCMS}}", fmt.Sprint(cfg.SyncMS),
	).Replace(Rules)
}

// Rules is the complete protocol. Placeholders: PXTICK, ELTIMEOUT,
// STRIDE, SYNCMS.
const Rules = `
	program paxos;

	//lint:feed paxos_request
	//lint:export decided is_leader
	// Paxos safety guarantees every decide_msg for a slot carries the
	// same command, so consumers are confluent regardless of arrival
	// order; the remaining protocol channels (prepare/promise/accept)
	// are deliberately unordered — reordering them is exactly what the
	// ballot discipline coordinates, so their under-coordinated-path
	// findings stand as documentation.
	//lint:ordered decide_msg all senders agree on the decided command per slot

	// --- the replica group & protocol state. The durable tables are an
	// acceptor's stable storage: its promise, accepted values and
	// ballot, and the learned log. Leadership, pending commands, slot
	// counters and tallies are soft state a crash erases (next_slot is
	// re-derived from the restored log by ss1/ss2). ---
	table replica(Node: addr, Rank: int) keys(0);
	table quorum(K: string, Q: int) keys(0);
	table promised(K: string, B: int) keys(0) durable;
	table accepted(Slot: int, Bal: int, Cmd: list) keys(0) durable;
	table cur_ballot(K: string, B: int) keys(0) durable;
	table is_leader(K: string, V: bool) keys(0);
	table leader_seen(K: string, T: int) keys(0);
	table last_elect(K: string, T: int) keys(0);
	table next_slot(K: string, S: int) keys(0);
	table decided(Slot: int, Cmd: list) keys(0) durable;
	table pending(ReqId: string, Cmd: list) keys(0);
	table inflight(ReqId: string);
	table proposal(Slot: int, Bal: int, Cmd: list) keys(0);
	table promise_store(Bal: int, From: addr);
	table promise_acc_store(Bal: int, Slot: int, AccBal: int, Cmd: list, From: addr) keys(0,1,4);
	table ack_store(Slot: int, Bal: int, From: addr);

	// --- wire protocol ---
	event paxos_request(To: addr, ReqId: string, Cmd: list);
	event prepare(To: addr, From: addr, B: int);
	event promise(To: addr, From: addr, B: int);
	event promise_acc(To: addr, From: addr, B: int, Slot: int, AccBal: int, Cmd: list);
	event accept_msg(To: addr, From: addr, B: int, Slot: int, Cmd: list);
	event accept_ack(To: addr, From: addr, B: int, Slot: int);
	event decide_msg(To: addr, Slot: int, Cmd: list);
	event leader_hb(To: addr, From: addr, B: int);
	event elect(K: string);
	event propose_slot(ReqId: string, Cmd: list);
	event propose_internal(Slot: int, Cmd: list);

	periodic px_tick interval {{PXTICK}};

	// --- leader heartbeat ---
	hb1 leader_hb(@N, Me, B) :- px_tick(_, _), is_leader("l", true), cur_ballot("b", B),
	        replica(N, _), Me := localaddr();
	hb2 leader_seen("t", now()) :- leader_hb(@Me, _, B), promised("p", PB), B >= PB;

	// --- election: staggered by rank so the next-ranked live replica
	// usually wins uncontested ---
	el1 elect("e") :- px_tick(_, _), is_leader("l", false), leader_seen("t", T),
	        replica(Me2, R), Me2 == localaddr(), now() - T > {{ELTIMEOUT}} * (R + 1),
	        last_elect("t", T2), now() - T2 > {{ELTIMEOUT}};
	el2 next last_elect("t", now()) :- elect("e");
	el3 next cur_ballot("b", NB) :- elect("e"), cur_ballot("b", B),
	        replica(Me2, R), Me2 == localaddr(), NB := ((B / {{STRIDE}}) + 1) * {{STRIDE}} + R;
	el4 prepare(@N, Me, NB) :- elect("e"), cur_ballot("b", B),
	        replica(Me2, R), Me2 == localaddr(), NB := ((B / {{STRIDE}}) + 1) * {{STRIDE}} + R,
	        replica(N, _), Me := localaddr();

	// --- acceptor: phase 1 ---
	ap1 next promised("p", B) :- prepare(@Me, _, B), promised("p", PB), B > PB;
	ap2 promise(@From, Me, B) :- prepare(@Me, From, B), promised("p", PB), B > PB;
	ap3 promise_acc(@From, Me, B, S, AB, Cmd) :- prepare(@Me, From, B),
	        promised("p", PB), B > PB, accepted(S, AB, Cmd);

	// --- candidate: tally promises, assume leadership on majority ---
	pm1 promise_store(B, From) :- promise(@Me, From, B);
	pm2 promise_acc_store(B, S, AB, Cmd, From) :- promise_acc(@Me, From, B, S, AB, Cmd);
	table promise_cnt(Bal: int, N: int) keys(0);
	pt1 promise_cnt(B, count<From>) :- promise_store(B, From);
	lead1 next is_leader("l", true) :- promise_cnt(B, N), cur_ballot("b", B),
	        quorum("q", Q), N >= Q, is_leader("l", false);
	// A replica that sees a higher ballot than its own abdicates.
	lead2 next is_leader("l", false) :- prepare(@Me, _, B), cur_ballot("b", MB), B > MB,
	        is_leader("l", true);
	// A zombie leader whose prepare from the successor was lost still
	// abdicates on the successor's heartbeat — without this, dual
	// leadership can persist indefinitely under message loss (the
	// single-leader chaos monitor found this hole).
	lead3 next is_leader("l", false) :- leader_hb(@Me, _, B), cur_ballot("b", MB), B > MB,
	        is_leader("l", true);
	// cur_ballot tracks the highest ballot observed, not just the
	// highest started here. Without this an abdicated leader's stale
	// promise tally still matches its cur_ballot and lead1 re-elects it
	// on the next step, forever (the second hole the chaos monitor
	// found); adopting the winner's ballot also lets cp5 retire the
	// stale tally.
	bb1 next cur_ballot("b", B) :- prepare(@Me, _, B), cur_ballot("b", MB), B > MB;
	bb2 next cur_ballot("b", B) :- leader_hb(@Me, _, B), cur_ballot("b", MB), B > MB;

	// --- new leader adopts the highest-ballot accepted value per slot ---
	table adopt_max(Slot: int, AB: int) keys(0);
	am1 adopt_max(S, max<AB>) :- promise_acc_store(B, S, AB, _, _), cur_ballot("b", B);
	ad1 propose_internal(S, Cmd) :- is_leader("l", true), adopt_max(S, AB),
	        cur_ballot("b", B), promise_acc_store(B, S, AB, Cmd, _), notin decided(S, _);
	pi1 proposal(S, B, Cmd) :- propose_internal(S, Cmd), cur_ballot("b", B);

	// Keep next_slot beyond anything ever seen.
	event slot_seen(Slot: int);
	ss1 slot_seen(S) :- decided(S, _);
	ss2 slot_seen(S) :- accepted(S, _, _);
	ss3 slot_seen(S) :- promise_acc_store(_, S, _, _, _);
	table max_seen_slot(K: string, S: int) keys(0);
	ms1 max_seen_slot("m", max<S>) :- slot_seen(S);
	ns1 next next_slot("s", MS + 1) :- max_seen_slot("m", MS), next_slot("s", S), S <= MS;

	// --- admission: one command per evaluation step, serializing slot
	// assignment without imperative help ---
	rq1 pending(Id, Cmd) :- paxos_request(@Me, Id, Cmd);
	table min_pending(K: string, Id: string) keys(0);
	mp1 min_pending("m", min<Id>) :- pending(Id, _), notin inflight(Id);
	ad2 propose_slot(Id, Cmd) :- min_pending("m", Id), pending(Id, Cmd),
	        notin inflight(Id), is_leader("l", true);
	pr1 proposal(S, B, Cmd) :- propose_slot(_, Cmd), next_slot("s", S), cur_ballot("b", B);
	pr2 next next_slot("s", S + 1) :- propose_slot(_, _), next_slot("s", S);
	pr3 next inflight(Id) :- propose_slot(Id, _);

	// --- phase 2: broadcast accepts (and retry undecided each tick) ---
	p2a accept_msg(@N, Me, B, S, Cmd) :- proposal(S, B, Cmd), cur_ballot("b", B),
	        is_leader("l", true), replica(N, _), Me := localaddr();
	rt1 accept_msg(@N, Me, B, S, Cmd) :- px_tick(_, _), is_leader("l", true),
	        cur_ballot("b", B), proposal(S, B, Cmd), notin decided(S, _),
	        replica(N, _), Me := localaddr();

	// --- acceptor: phase 2. The accepted-value write is deferred (it
	// breaks the adopt/propose/accept cycle temporally, as JOL's
	// deferred updates did); the ack is chained off the applied write so
	// an acceptor never acknowledges state it has not recorded.
	table acc_src(Slot: int, Bal: int, From: addr) keys(0,1);
	p2b next accepted(S, B, Cmd) :- accept_msg(@Me, _, B, S, Cmd), promised("p", PB), B >= PB;
	p2s acc_src(S, B, From) :- accept_msg(@Me, From, B, S, _), promised("p", PB), B >= PB;
	p2c accept_ack(@From, Me, B, S) :- accepted(S, B, _), acc_src(S, B, From),
	        Me := localaddr();
	// Re-ack retried accepts whose value is already recorded (the first
	// ack may have been lost).
	p2r accept_ack(@From, Me, B, S) :- accept_msg(@Me, From, B, S, Cmd),
	        accepted(S, B, Cmd);
	p2d next promised("p", B) :- accept_msg(@Me, _, B, _, _), promised("p", PB), B > PB;

	// --- leader: tally acks, decide on majority, broadcast ---
	ak1 ack_store(S, B, From) :- accept_ack(@Me, From, B, S);
	table ack_cnt(Slot: int, Bal: int, N: int) keys(0,1);
	at1 ack_cnt(S, B, count<From>) :- ack_store(S, B, From);
	dc1 decide_msg(@N, S, Cmd) :- ack_cnt(S, B, N1), quorum("q", Q), N1 >= Q,
	        proposal(S, B, Cmd), replica(N, _);
	dc2 next decided(S, Cmd) :- decide_msg(@Me, S, Cmd);

	// Learner anti-entropy: the leader re-broadcasts its decided log on
	// a slow timer so a dropped decide_msg cannot orphan a follower.
	periodic px_sync interval {{SYNCMS}};
	le1 decide_msg(@N, S, Cmd) :- px_sync(_, _), is_leader("l", true),
	        decided(S, Cmd), replica(N, _);

	// --- cleanup: a decided command clears its queue entry and its
	// per-slot bookkeeping; a decided slot needs no more acks ---
	cp1 delete pending(Id, C2) :- decided(_, Cmd), Id := tostr(nth(Cmd, 0)), pending(Id, C2);
	cp2 delete inflight(Id) :- decided(_, Cmd), Id := tostr(nth(Cmd, 0)), inflight(Id);
	cp3 delete ack_store(S, B, F) :- decided(S, _), ack_store(S, B, F);
	cp4 delete acc_src(S, B, F) :- decided(S, _), acc_src(S, B, F);
	// Promise tallies for superseded ballots are dead weight once the
	// ballot moves on.
	cp5 delete promise_store(B, F) :- cur_ballot("b", CB), promise_store(B, F), B < CB;
`

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
	if err := rt.InstallSource(cfg.rules()); err != nil {
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
// it — expanded rules plus replica 0's seed facts — for whole-program
// static analysis (cmd/boomlint). Other packages that co-install the
// protocol (kvstore, the replicated BOOM-FS master) reuse it in their
// own lint units.
func LintSources() []string {
	members := []string{"px:0", "px:1", "px:2"}
	return []string{DefaultConfig().rules(), seedFacts(0, members, true)}
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
