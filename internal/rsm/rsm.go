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
	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
)

// Rules is the replay cursor and its dedup.
const Rules = `
	program rsm;

	//lint:export apply done

	// Every decided command replays in slot order, one slot per step. A
	// command's writes are usually deferred (next), so a later command
	// that reads them must apply in a later step; yet anti-entropy and
	// post-election adoption can land a batch of slots in one step, in
	// any order. Replaying a batch at once drops commands (a BOOM-FS
	// addchunk in the same step as its create finds no file row) or
	// applies them in arrival order (an old KV del deletes a newer put
	// of the key). The cursor is durable: a restarted replica resumes at
	// it, and the restored cursor's delta re-fires sm1/sm2 if the crash
	// fell between a slot's decision and its application.
	table applied(K: string, S: int) keys(0) durable;

	// Exactly-once: a client that never saw its response retries under
	// the same request id, which can land in a second slot (the leader's
	// inflight dedup is soft state, gone after a commit or a crash).
	// seen_op records the first slot that applied each id; later slots
	// carrying it advance the cursor without applying. Consulting it one
	// step late is safe: duplicate slots are strictly later, so sm4's
	// insert is visible before any of them replays. It is durable with
	// the cursor (both commit in one step).
	table seen_op(Id: string, S: int) keys(0) durable;

	// done fires for every slot the cursor passes, first or duplicate,
	// so a service whose reply needs no state can answer a retry.
	event apply(S: int, Id: string, Src: addr, Cmd: list);
	event done(Id: string, Src: addr);

	sm1 done(Id, Src) :- decided(S, Cmd), applied("a", S),
	        Id := tostr(nth(Cmd, 0)), Src := toaddr(nth(Cmd, 1));
	sm2 apply(S, Id, Src, Cmd) :- decided(S, Cmd), applied("a", S),
	        Id := tostr(nth(Cmd, 0)), Src := toaddr(nth(Cmd, 1)), notin seen_op(Id, _);
	sm3 next applied("a", S + 1) :- decided(S, _), applied("a", S);
	sm4 next seen_op(Id, S) :- apply(S, Id, _, _);
`

// seed starts the cursor at slot 0. Only a replica's first install
// inserts it: on a restart the restore brings the cursor back, and a
// seed row it displaced would still sit in the first step's delta,
// re-passing slot 0 and then, every step, the slot before the cursor.
const seed = `applied("a", 0);`

// Install loads Paxos, the replay rules and then the service's rules
// onto a runtime.
func Install(rt *overlog.Runtime, self string, members []string, cfg paxos.Config, service string) error {
	if err := paxos.Install(rt, self, members, cfg); err != nil {
		return err
	}
	return install(rt, Rules+seed, service)
}

// InstallRestarted is Install for a replica coming back from a crash
// (paxos.InstallRestarted). The caller's restore of the durable tables
// then puts the cursor back where the crash left it.
func InstallRestarted(rt *overlog.Runtime, self string, members []string, cfg paxos.Config, service string) error {
	if err := paxos.InstallRestarted(rt, self, members, cfg); err != nil {
		return err
	}
	return install(rt, Rules, service)
}

func install(rt *overlog.Runtime, rules, service string) error {
	if err := rt.InstallSource(rules); err != nil {
		return err
	}
	return rt.InstallSource(service)
}

// LintSources is Paxos plus the replay rules as a three-replica
// deployment installs them; a service appends its own rules.
func LintSources() []string { return append(paxos.LintSources(), Rules+seed) }

// LintUnits declares the analysis unit for this package.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{Name: "rsm", Groups: map[string][]string{"replica": LintSources()}}}
}
