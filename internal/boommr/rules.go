// Package boommr implements BOOM-MR: the MapReduce engine from "BOOM
// Analytics" (EuroSys 2010) whose JobTracker scheduling state machine
// is Overlog while the MapReduce dataflow (split reading, map/reduce
// execution, shuffle) remains imperative — precisely the paper's split,
// where BOOM-MR replaced Hadoop's JobTracker internals with rules but
// kept Hadoop's task execution in Java.
//
// Scheduling policy is a plug-in rule set: PolicyFIFO is plain
// first-come-first-served; PolicyLATE adds the LATE speculative
// re-execution heuristic (Zaharia et al., OSDI 2008) in a dozen rules,
// reproducing the paper's point that policy changes are small,
// declarative deltas.
package boommr

import (
	"fmt"
	"strings"

	"repro/internal/overlog/analysis"
)

func expand(src string, vars map[string]string) string {
	for k, v := range vars {
		src = strings.ReplaceAll(src, "{{"+k+"}}", v)
	}
	return src
}

// MRProtocolDecls is the tuple protocol between the JobTracker,
// TaskTrackers, and job clients.
const MRProtocolDecls = `
	// Boundary facts for boomlint: clients inject job/task submissions,
	// the tracker-side executor service consumes assignments and injects
	// rejections when its slots are full (see jobtracker.go, tracker.go).
	//lint:feed job_submit task_submit assign_reject
	//lint:export assign

	event job_submit(JT: addr, JobId: int, NMap: int, NRed: int);
	event task_submit(JT: addr, JobId: int, TaskId: int, Type: string);
	event tt_hb(JT: addr, Tracker: addr, MapSlots: int, RedSlots: int, MapUsed: int, RedUsed: int);
	event attempt_progress(JT: addr, JobId: int, TaskId: int, AttemptId: int, Progress: float);
	event attempt_done(JT: addr, JobId: int, TaskId: int, AttemptId: int, Tracker: addr, Ok: bool);
	event assign(Tracker: addr, JobId: int, TaskId: int, AttemptId: int, Type: string, Spec: bool);
	event assign_reject(JT: addr, JobId: int, TaskId: int, AttemptId: int, Tracker: addr);
`

// JobTrackerRules is the policy-independent scheduler machinery: job
// and task state, tracker heartbeats, attempt bookkeeping, assignment
// plumbing, and completion detection. Policies derive cand_map /
// cand_red (and speculative do_assign) from this state.
// Placeholders: SCHEDMS (scheduling tick), TTTTL (tracker liveness ms).
const JobTrackerRules = `
	program boommr_jt;

	// The Go JobTracker API and the telemetry exporter read scheduler
	// state directly from these tables.
	//lint:export job attempt tracker task_done_at job_done_at

	table job(JobId: int, Submit: int, NMap: int, NRed: int, State: string) keys(0);
	table task(JobId: int, TaskId: int, Type: string, State: string) keys(0,1);
	table attempt(JobId: int, TaskId: int, AttemptId: int, Tracker: addr,
	              State: string, Progress: float, Start: int, End: int) keys(2);
	table tracker(Tracker: addr, MapSlots: int, RedSlots: int, MapUsed: int, RedUsed: int) keys(0);
	table tracker_hb(Tracker: addr, LastHB: int) keys(0);
	table tracker_live(Tracker: addr, Up: bool) keys(0);
	table task_done_at(JobId: int, TaskId: int, Type: string, Time: int) keys(0,1);
	table job_done_at(JobId: int, Time: int) keys(0);

	// Policy interface: a policy derives these per scheduling tick.
	event cand_map(Tracker: addr, JobId: int, TaskId: int);
	event cand_red(Tracker: addr, JobId: int, TaskId: int);
	event do_assign(JobId: int, TaskId: int, Tracker: addr, AttemptId: int, Type: string, Spec: bool);

	periodic sched_tick interval {{SCHEDMS}};

	// --- intake ---
	j1 job(J, now(), NM, NR, "running") :- job_submit(@JT, J, NM, NR);
	t1 task(J, T, Ty, "pending") :- task_submit(@JT, J, T, Ty);
	h1 tracker(Tr, MS, RS, MU, RU) :- tt_hb(@JT, Tr, MS, RS, MU, RU);
	h2 tracker_hb(Tr, now()) :- tt_hb(@JT, Tr, _, _, _, _);

	// --- liveness: a heartbeat sets Up, and tl1 is the one rule that
	// expires a silent tracker, on the tick whose rules read it. Both
	// replace the keyed row: a heartbeat in a tick's step is written
	// first, so tl1 sees the fresh stamp. ---
	h3 tracker_live(Tr, true) :- tt_hb(@JT, Tr, _, _, _, _);
	tl1 tracker_live(Tr, false) :- sched_tick(_, _), tracker_hb(Tr, HB), HB < now() - {{TTTTL}};

	// --- assignment plumbing ---
	a1 do_assign(J, T, Tr, nextid(), "map", false) :- cand_map(Tr, J, T);
	a2 do_assign(J, T, Tr, nextid(), "reduce", false) :- cand_red(Tr, J, T);
	a3 assign(@Tr, J, T, A, Ty, Sp) :- do_assign(J, T, Tr, A, Ty, Sp);
	a4 next task(J, T, Ty, "running") :- do_assign(J, T, _, _, Ty, Sp), Sp == false,
	        task(J, T, Ty, "pending");
	a5 next attempt(J, T, A, Tr, "running", 0.0, now(), 0) :- do_assign(J, T, Tr, A, _, _);
	// Optimistically count the slot as used until the next heartbeat
	// reasserts the tracker's own view.
	a6 next tracker(Tr, MS, RS, MU + 1, RU) :-
	        do_assign(_, _, Tr, _, "map", _), tracker(Tr, MS, RS, MU, RU);
	a7 next tracker(Tr, MS, RS, MU, RU + 1) :-
	        do_assign(_, _, Tr, _, "reduce", _), tracker(Tr, MS, RS, MU, RU);

	// --- rejections: tracker was full; task returns to pending ---
	rj1 next task(J, T, Ty, "pending") :- assign_reject(@JT, J, T, _, _),
	        task(J, T, Ty, "running");
	rj2 attempt(J, T, A, Tr, "rejected", 0.0, S, now()) :-
	        assign_reject(@JT, J, T, A, Tr), attempt(J, T, A, _, _, _, S, _);

	// --- progress & completion ---
	p1 attempt(J, T, A, Tr, "running", P, S, 0) :- attempt_progress(@JT, J, T, A, P),
	        attempt(J, T, A, Tr, "running", _, S, _);
	d1 task_done_at(J, T, Ty, now()) :- attempt_done(@JT, J, T, _, _, true),
	        task(J, T, Ty, St), St != "done";
	d2 next task(J, T, Ty, "done") :- attempt_done(@JT, J, T, _, _, true), task(J, T, Ty, _);
	d3 attempt(J, T, A, Tr, "done", 1.0, S, now()) :- attempt_done(@JT, J, T, A, Tr, true),
	        attempt(J, T, A, _, _, _, S, _);
	d4 next task(J, T, Ty, "pending") :- attempt_done(@JT, J, T, _, _, false),
	        task(J, T, Ty, "running");
	d5 attempt(J, T, A, Tr, "failed", P, S, now()) :- attempt_done(@JT, J, T, A, Tr, false),
	        attempt(J, T, A, _, _, P, S, _);

	// --- tracker failure: re-pend tasks whose only progress was on a
	// tracker that stopped heartbeating ---
	tf1 next task(J, T, Ty, "pending") :- sched_tick(_, _),
	        attempt(J, T, _, Tr, "running", _, _, _), task(J, T, Ty, "running"),
	        tracker_live(Tr, false);
	tf2 attempt(J, T, A, Tr, "lost", P, S, now()) :- sched_tick(_, _),
	        attempt(J, T, A, Tr, "running", P, S, _), tracker_live(Tr, false);

	table job_done_cnt(JobId: int, N: int) keys(0);
	jc1 job_done_cnt(J, count<T>) :- task(J, T, _, "done");
	jc2 next job(J, S, NM, NR, "done") :- job_done_cnt(J, N), job(J, S, NM, NR, "running"),
	        N == NM + NR;
	// While the job row still reads "running" (its own update is
	// deferred one step) this may re-fire, overwriting the timestamp by
	// at most a millisecond; a notin guard would make it unstratifiable.
	jc3 job_done_at(J, now()) :- job_done_cnt(J, N), job(J, _, NM, NR, "running"),
	        N == NM + NR;

	table maps_done(JobId: int, N: int) keys(0);
	md1 maps_done(J, count<T>) :- task(J, T, "map", "done");

	// --- shared ranking infrastructure for pairing policies ---
	// 1-based lexicographic ranks of pending tasks and of live trackers
	// with free slots; a policy pairs rank R with tracker rank K.
	table pending_map_rank(JobId: int, TaskId: int, R: int) keys(0,1);
	pm1 pending_map_rank(J, T, count<K2>) :- task(J, T, "map", "pending"),
	        task(J2, T2, "map", "pending"), K2 := J2 * 1000000 + T2,
	        or(J2 < J, and(J2 == J, T2 <= T));
	table pending_red_rank(JobId: int, TaskId: int, R: int) keys(0,1);
	pr1 pending_red_rank(J, T, count<K2>) :- task(J, T, "reduce", "pending"),
	        task(J2, T2, "reduce", "pending"), K2 := J2 * 1000000 + T2,
	        or(J2 < J, and(J2 == J, T2 <= T));

	table free_map_rank(Tracker: addr, K: int) keys(0);
	fm1 free_map_rank(Tr, count<Tr2>) :- tracker(Tr, MS, _, MU, _), MS > MU,
	        tracker_live(Tr, true), tracker(Tr2, MS2, _, MU2, _), MS2 > MU2,
	        tracker_live(Tr2, true), Tr2 <= Tr;
	table free_map_cnt(K: string, N: int) keys(0);
	fc1 free_map_cnt("m", count<Tr>) :- tracker(Tr, MS, _, MU, _), MS > MU, tracker_live(Tr, true);

	table free_red_rank(Tracker: addr, K: int) keys(0);
	fr1 free_red_rank(Tr, count<Tr2>) :- tracker(Tr, _, RS, _, RU), RS > RU,
	        tracker_live(Tr, true), tracker(Tr2, _, RS2, _, RU2), RS2 > RU2,
	        tracker_live(Tr2, true), Tr2 <= Tr;
	table free_red_cnt(K: string, N: int) keys(0);
	fc2 free_red_cnt("r", count<Tr>) :- tracker(Tr, _, RS, _, RU), RS > RU, tracker_live(Tr, true);
`

// PolicyFIFO assigns pending tasks in (JobId, TaskId) order to free
// trackers, one task per free tracker per tick; reduces wait for the
// map barrier. No speculation. This is the paper's baseline policy.
const PolicyFIFO = `
	program boommr_policy_fifo;

	cm1 cand_map(Tr, J, T) :- sched_tick(_, _),
	        pending_map_rank(J, T, R), task(J, T, "map", "pending"),
	        free_map_rank(Tr, K), free_map_cnt("m", N), N > 0,
	        R <= N, (R - 1) % N == K - 1;

	cr1 cand_red(Tr, J, T) :- sched_tick(_, _),
	        pending_red_rank(J, T, R), task(J, T, "reduce", "pending"),
	        maps_done(J, DN), job(J, _, NM, _, "running"), DN == NM,
	        free_red_rank(Tr, K), free_red_cnt("r", N), N > 0,
	        R <= N, (R - 1) % N == K - 1;
`

// PolicyFAIR replaces FIFO's map dispatch with job-fair sharing: a
// pending map task's priority key leads with how many of its job's
// maps are already running, so the least-served job goes first and two
// concurrent jobs interleave instead of queueing. This is the paper's
// "alternative scheduling policies are small rule sets" point taken one
// step further than the published prototype (which shipped FIFO and
// LATE): another ~8 rules, zero changes to the machinery.
const PolicyFAIR = `
	program boommr_policy_fair;

	// The machinery's map-rank tables stay resident (policies are
	// hot-swappable deltas) even though fair dispatch replaces them.
	//lint:ignore write-only-table

	// Service received per job: map tasks running or already done. The
	// count is monotone, so aggregate staleness cannot occur.
	table job_served(JobId: int, N: int) keys(0);
	js1 job_served(J, count<T>) :- task(J, T, "map", St), St != "pending";

	// Priority key: (service received, job, task) — lexicographic, so
	// the least-served job's next task always sorts first.
	event fair_key(JobId: int, TaskId: int, K: int);
	fk1 fair_key(J, T, K) :- sched_tick(_, _), task(J, T, "map", "pending"),
	        job_served(J, N), K := N * 1000000000000 + J * 1000000 + T;
	fk2 fair_key(J, T, K) :- sched_tick(_, _), task(J, T, "map", "pending"),
	        notin job_served(J, _), K := J * 1000000 + T;

	table fair_rank(JobId: int, TaskId: int, R: int) keys(0,1);
	far1 fair_rank(J, T, count<K2>) :- fair_key(J, T, K), fair_key(_, _, K2), K2 <= K;

	fa1 cand_map(Tr, J, T) :- fair_rank(J, T, R), task(J, T, "map", "pending"),
	        free_map_rank(Tr, Kt), free_map_cnt("m", Nf), Nf > 0,
	        R <= Nf, (R - 1) % Nf == Kt - 1;

	// Reduces keep the FIFO barrier dispatch.
	fa2 cand_red(Tr, J, T) :- sched_tick(_, _),
	        pending_red_rank(J, T, R), task(J, T, "reduce", "pending"),
	        maps_done(J, DN), job(J, _, NM, _, "running"), DN == NM,
	        free_red_rank(Tr, K), free_red_cnt("r", N), N > 0,
	        R <= N, (R - 1) % N == K - 1;
`

// PolicyLATE is PolicyFIFO plus the LATE speculative scheduler:
// estimate each running attempt's time-to-completion from its progress
// rate, and re-launch the longest-estimate straggler (whose rate is
// below SLOWFRAC of the job average) on a free tracker. The policy
// delta is ~12 rules, the paper's headline for declarative scheduling.
// Placeholders: SLOWFRAC (e.g. 0.5), SPECMINMS (min runtime
// before an attempt may be speculated), MAXSPEC (max speculative
// attempts per task, normally 1).
const PolicyLATE = `
	program boommr_policy_late;

	// Observed progress rate per map attempt: completed attempts use
	// their true rate, running ones their progress so far. Including
	// finished attempts is what lets healthy tasks define "normal speed"
	// (they often complete before a straggler qualifies for comparison).
	table attempt_rate(AttemptId: int, JobId: int, Rate: float) keys(0);
	arr1 attempt_rate(A, J, Rt) :- attempt(J, T, A, _, "running", P, S, _),
	        task(J, T, "map", _), El := now() - S, El > 0, P > 0.0,
	        Rt := P / tofloat(El);
	arr2 attempt_rate(A, J, Rt) :- attempt(J, T, A, _, "done", _, S, E),
	        task(J, T, "map", _), E > S, Rt := 1.0 / tofloat(E - S);

	table avg_rate(JobId: int, Rate: float) keys(0);
	ar1 avg_rate(J, avg<Rt>) :- attempt_rate(_, J, Rt);

	// How many attempts each task has had (to cap speculation).
	table attempts_of(JobId: int, TaskId: int, N: int) keys(0,1);
	ao1 attempts_of(J, T, count<A>) :- attempt(J, T, A, _, _, _, _, _);

	// Straggler candidates: slow relative to the job average, with an
	// estimated remaining time.
	event spec_cand(JobId: int, TaskId: int, Est: float);
	sc1 spec_cand(J, T, Est) :- sched_tick(_, _),
	        attempt(J, T, _, _, "running", P, S, _), task(J, T, "map", "running"),
	        avg_rate(J, AR), El := now() - S, El >= {{SPECMINMS}},
	        Rt := P / tofloat(El), Rt < AR * {{SLOWFRAC}},
	        attempts_of(J, T, NA), NA < 1 + {{MAXSPEC}},
	        Est := (1.0 - P) / maxv(Rt, 0.000001);

	// Launch one speculative copy per tick: the worst straggler, on the
	// first free tracker not already running this task.
	event spec_worst(K: string, Est: float);
	sw1 spec_worst("w", max<E>) :- spec_cand(_, _, E);
	sp1 do_assign(J, T, Tr, nextid(), "map", true) :- spec_worst("w", E),
	        spec_cand(J, T, E), free_map_rank(Tr, 1),
	        notin attempt(J, T, _, Tr, "running", _, _, _);
`

// LintUnits declares one analysis unit per deployable policy
// combination, each pairing the JobTracker role with the TaskTracker
// role so cross-node dataflow (heartbeats, assignments, reports)
// resolves. Policies are linted in separate units because they are
// mutually exclusive at install time. Sources are expanded with the
// default config, exactly as InstallJobTrackerPrograms does.
func LintUnits() []analysis.Unit {
	cfg := DefaultMRConfig()
	vars := map[string]string{
		"SCHEDMS":   fmt.Sprintf("%d", cfg.SchedTickMS),
		"TTTTL":     fmt.Sprintf("%d", cfg.TrackerTTL),
		"SLOWFRAC":  fmt.Sprintf("%g", cfg.SlowFrac),
		"SPECMINMS": fmt.Sprintf("%d", cfg.SpecMinMS),
		"MAXSPEC":   fmt.Sprintf("%d", cfg.MaxSpec),
	}
	jt := expand(JobTrackerRules, vars)
	fifo := expand(PolicyFIFO, vars)
	tt := expand(TrackerRules, map[string]string{"TTHB": fmt.Sprintf("%d", cfg.HeartbeatMS)})
	unit := func(name string, policies ...string) analysis.Unit {
		return analysis.Unit{
			Name: "boommr-" + name,
			Groups: map[string][]string{
				"jobtracker":  append([]string{MRProtocolDecls, jt}, policies...),
				"tasktracker": {MRProtocolDecls, tt},
			},
		}
	}
	return []analysis.Unit{
		unit("fifo", fifo),
		unit("fair", expand(PolicyFAIR, vars)),
		unit("late", fifo, expand(PolicyLATE, vars)),
	}
}
