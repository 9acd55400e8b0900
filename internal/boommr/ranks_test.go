package boommr

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/overlog"
)

// installCountRank installs the scheduler as it was written before its
// ranks became sorted lists. testdata/countrank holds that rule text
// verbatim: pending and free ranks as count<> over a self-join, FAIR's
// quadratic far1, LATE's free_map_rank(Tr, 1), and tf1/tf2 led by the
// running attempts rather than the dead trackers.
func installCountRank(rt *overlog.Runtime, policy Policy, cfg MRConfig) error {
	files := map[Policy][]string{FIFO: {"fifo.olg"}, FAIR: {"fair.olg"}, LATE: {"fifo.olg", "late.olg"}}
	if err := rt.InstallSource(MRProtocolDecls); err != nil {
		return err
	}
	params := cfg.Params()
	for _, name := range append([]string{"jobtracker.olg"}, files[policy]...) {
		src, err := os.ReadFile(filepath.Join("testdata", "countrank", name))
		if err != nil {
			return err
		}
		if err := rt.InstallSource(string(src), params[name]...); err != nil {
			return err
		}
	}
	return nil
}

const rankJT = "jt:0"

// rankTwin runs the count-rank fixture and the shipped rules side by
// side on the same inputs, and records what each derives in a step:
// cand_map, cand_red, and the speculative do_assign LATE's sp1 makes.
type rankTwin struct {
	rts [2]*overlog.Runtime // count-rank fixture, shipped rules
	got [2][]string
	now int64
}

func newRankTwin(t *testing.T, policy Policy) *rankTwin {
	t.Helper()
	cfg := DefaultMRConfig()
	w := &rankTwin{}
	install := [2]func(*overlog.Runtime, Policy, MRConfig) error{installCountRank, InstallJobTrackerPrograms}
	for i := range w.rts {
		rt := overlog.NewRuntime(rankJT)
		if err := install[i](rt, policy, cfg); err != nil {
			t.Fatal(err)
		}
		for _, tbl := range []string{"cand_map", "cand_red", "do_assign"} {
			if err := rt.AddWatch(tbl, "i"); err != nil {
				t.Fatal(err)
			}
		}
		rt.RegisterWatcher(func(ev overlog.WatchEvent) {
			v := ev.Tuple.Vals
			switch ev.Tuple.Table {
			case "cand_map", "cand_red":
				w.got[i] = append(w.got[i], ev.Tuple.String())
			case "do_assign":
				if v[5].AsBool() {
					w.got[i] = append(w.got[i], fmt.Sprintf("spec(%v, %v, %v)", v[0], v[1], v[2]))
				}
			}
		})
		w.rts[i] = rt
	}
	return w
}

// step runs both runtimes at time now on the same inputs and fails on
// any difference in what they derived or in the task and attempt state
// they hold afterwards (attempt ids aside: nextid numbers attempts in
// derivation order, and FAIR's order is not the old rules' order).
func (w *rankTwin) step(t *testing.T, now int64, in []overlog.Tuple) []string {
	t.Helper()
	w.now = now
	for i, rt := range w.rts {
		w.got[i] = w.got[i][:0]
		if _, err := rt.Step(now, slices.Clone(in)); err != nil {
			t.Fatal(err)
		}
		slices.Sort(w.got[i])
	}
	if a, b := strings.Join(w.got[0], "\n"), strings.Join(w.got[1], "\n"); a != b {
		t.Fatalf("t=%d: the count-rank rules derive\n%s\nthe sorted-list rules\n%s", now, a, b)
	}
	if a, b := w.rts[0].Table("task").Dump(), w.rts[1].Table("task").Dump(); a != b {
		t.Fatalf("t=%d: task differs:\n%s\nvs\n%s", now, a, b)
	}
	if a, b := attemptsByTask(w.rts[0]), attemptsByTask(w.rts[1]); a != b {
		t.Fatalf("t=%d: attempt differs:\n%s\nvs\n%s", now, a, b)
	}
	return w.got[1]
}

// attemptsByTask renders attempt without its id column, sorted.
func attemptsByTask(rt *overlog.Runtime) string {
	var rows []string
	for _, tp := range rt.Table("attempt").Tuples() {
		v := slices.Clone(tp.Vals)
		v[2] = overlog.Int(0)
		rows = append(rows, overlog.NewTuple("attempt", v...).String())
	}
	slices.Sort(rows)
	return strings.Join(rows, "\n")
}

// rankCoverage counts the situations the differential test must reach.
type rankCoverage struct {
	backlog, noFree, deadRunning, fairTie, decided, spec int
}

// observe notes, before a tick, what the shipped runtime's state holds.
func (c *rankCoverage) observe(rt *overlog.Runtime) {
	live := map[string]bool{}
	for _, tp := range rt.Table("tracker_live").Tuples() {
		live[tp.Vals[0].AsString()] = tp.Vals[1].AsBool()
	}
	free := 0
	for _, tp := range rt.Table("tracker").Tuples() {
		if v := tp.Vals; live[v[0].AsString()] && v[1].AsInt() > v[3].AsInt() {
			free++
		}
	}
	pending, running := 0, map[[2]int64]bool{}
	served, waiting := map[int64]int{}, map[int64]bool{}
	for _, tp := range rt.Table("task").Tuples() {
		v := tp.Vals
		if v[2].AsString() != "map" {
			continue
		}
		switch v[3].AsString() {
		case "pending":
			pending++
			waiting[v[0].AsInt()] = true
		case "running":
			running[[2]int64{v[0].AsInt(), v[1].AsInt()}] = true
			fallthrough
		default:
			served[v[0].AsInt()]++
		}
	}
	if pending > free && free > 0 {
		c.backlog++
	}
	if pending > 0 && free == 0 {
		c.noFree++
	}
	for _, tp := range rt.Table("attempt").Tuples() {
		v := tp.Vals
		if v[4].AsString() == "running" && !live[v[3].AsString()] && running[[2]int64{v[0].AsInt(), v[1].AsInt()}] {
			c.deadRunning++
			break
		}
	}
	seen := map[int]bool{}
	for j := range waiting {
		if seen[served[j]] {
			c.fairTie++
			break
		}
		seen[served[j]] = true
	}
}

// input runs one step of inputs just after the last, then settles.
func (w *rankTwin) input(t *testing.T, in []overlog.Tuple) {
	t.Helper()
	w.step(t, w.now+1, in)
	w.settle(t)
}

// settle lands deferred heads the way the simulator does, one step a
// millisecond later each, until neither runtime has any.
func (w *rankTwin) settle(t *testing.T) {
	t.Helper()
	for w.rts[0].NextWake() == w.now+1 || w.rts[1].NextWake() == w.now+1 {
		w.step(t, w.now+1, nil)
	}
}

// randomTrial drives one twin through a random cluster: up to eight
// trackers with random slot use (some full, some dead), up to four jobs
// whose tasks are pending, running (on live or dead trackers, with
// progress that makes some of them stragglers) or done, then six
// scheduling ticks with heartbeats, deaths, completions and new jobs
// in between.
//
// A tick gets a step of its own, and so does each tracker's change.
// The count-rank rules read a rank row the step has just made stale
// (a tracker that left the free set keeps its rank until the step
// ends), so a tick sharing its step with such a change could pair a
// full or dead tracker; the sorted lists cannot. The trials compare
// the two where the old rules were well defined.
func randomTrial(t *testing.T, w *rankTwin, rng *rand.Rand, cov *rankCoverage) {
	const t0 = 10_000 // past spec_min_ms, so old attempts can straggle
	cfg := DefaultMRConfig()
	jt := overlog.Addr(rankJT)
	w.step(t, t0, nil) // the first tick: nothing to schedule
	nTr := 1 + rng.Intn(8)
	trackers := make([]overlog.Value, nTr)
	hb := func(tr overlog.Value) []overlog.Tuple {
		ms, rs := 1+rng.Intn(3), 1+rng.Intn(2)
		return []overlog.Tuple{overlog.NewTuple("tt_hb", jt, tr, overlog.Int(int64(ms)), overlog.Int(int64(rs)),
			overlog.Int(int64(rng.Intn(ms+1))), overlog.Int(int64(rng.Intn(rs+1))))}
	}
	dies := func(tr overlog.Value) []overlog.Tuple {
		return []overlog.Tuple{overlog.NewTuple("tracker_live", tr, overlog.Bool(false))}
	}
	for i := range trackers {
		trackers[i] = overlog.Addr(fmt.Sprintf("tt:%d", i))
		w.input(t, hb(trackers[i]))
	}
	nextJob := int64(1)
	submit := func() []overlog.Tuple {
		j := nextJob
		nextJob++
		nm, nr := 1+rng.Intn(6), rng.Intn(3)
		out := []overlog.Tuple{overlog.NewTuple("job_submit", jt, overlog.Int(j),
			overlog.Int(int64(nm)), overlog.Int(int64(nr)))}
		for task := 0; task < nm+nr; task++ {
			ty := "map"
			if task >= nm {
				ty = "reduce"
			}
			out = append(out, overlog.NewTuple("task_submit", jt, overlog.Int(j), overlog.Int(int64(task)), overlog.Str(ty)))
		}
		return out
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		w.input(t, submit())
	}

	// Move some tasks on, with attempts of their own; kill some trackers.
	var states []overlog.Tuple
	attemptID := int64(1_000_000)
	for _, tp := range w.rts[1].Table("task").Tuples() {
		j, task, ty := tp.Vals[0], tp.Vals[1], tp.Vals[2]
		tr := trackers[rng.Intn(nTr)]
		start := t0 - rng.Int63n(4000)
		attemptID++
		switch rng.Intn(3) {
		case 1:
			states = append(states, overlog.NewTuple("task", j, task, ty, overlog.Str("running")),
				overlog.NewTuple("attempt", j, task, overlog.Int(attemptID), tr, overlog.Str("running"),
					overlog.Float(0.01+0.9*rng.Float64()), overlog.Int(start), overlog.Int(0)))
		case 2:
			states = append(states, overlog.NewTuple("task", j, task, ty, overlog.Str("done")),
				overlog.NewTuple("attempt", j, task, overlog.Int(attemptID), tr, overlog.Str("done"),
					overlog.Float(1), overlog.Int(start), overlog.Int(start+500+rng.Int63n(2000))))
		}
	}
	w.input(t, states)
	for _, tr := range trackers {
		if rng.Intn(4) == 0 {
			w.input(t, dies(tr))
		}
	}

	for tick := int64(1); tick <= 6; tick++ {
		at := t0 + tick*cfg.SchedTickMS
		if w.now >= at {
			t.Fatalf("inputs ran into the tick at %d", at)
		}
		cov.observe(w.rts[1])
		decided := w.step(t, at, nil)
		if len(decided) > 0 {
			cov.decided++
		}
		for _, d := range decided {
			if strings.HasPrefix(d, "spec(") {
				cov.spec++
			}
		}
		w.settle(t)
		for _, tr := range trackers {
			switch r := rng.Intn(10); {
			case r < 4:
				w.input(t, hb(tr)) // new slot use, and alive again
			case r == 4:
				w.input(t, dies(tr))
			}
		}
		var done []overlog.Tuple
		for _, tp := range w.rts[1].Table("task").Tuples() {
			if tp.Vals[3].AsString() == "running" && rng.Intn(3) == 0 {
				done = append(done, overlog.NewTuple("task", tp.Vals[0], tp.Vals[1], tp.Vals[2], overlog.Str("done")))
			}
		}
		w.input(t, done)
		if rng.Intn(3) == 0 {
			w.input(t, submit())
		}
	}
}

// TestSortedRanksMatchCountRanks is the differential test of the
// scheduler's ranking rules: on seeded random clusters, the shipped
// sorted-list rules (pending_maps, free_maps, ...) derive exactly the
// candidates the count-rank rules in testdata/countrank did, in every
// step, under FIFO, FAIR and LATE, and leave the same tasks and
// attempts behind. The trials must reach a backlog (more pending maps
// than free trackers), ticks with no free tracker, a dead tracker
// holding a running attempt, two jobs with pending maps tied on FAIR's
// served count, and LATE speculation.
func TestSortedRanksMatchCountRanks(t *testing.T) {
	for _, policy := range []Policy{FIFO, FAIR, LATE} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(45))
			var cov rankCoverage
			for trial := 0; trial < 40; trial++ {
				randomTrial(t, newRankTwin(t, policy), rng, &cov)
			}
			t.Logf("%+v", cov)
			if cov.backlog == 0 || cov.noFree == 0 || cov.deadRunning == 0 || cov.fairTie == 0 || cov.decided == 0 {
				t.Errorf("the trials missed a case: %+v", cov)
			}
			if policy == LATE && cov.spec == 0 {
				t.Errorf("LATE never speculated: %+v", cov)
			}
		})
	}
}

// TestTickBesideFillingTrackerPairsOnce pins the one place the sorted
// lists decide differently from the count ranks: a tick whose step also
// fills a free tracker. free_map_rank kept the full tracker's rank row
// until the step ended, so the old cm1 paired the first pending task
// with it and with the tracker that inherited its rank, launching the
// task twice. free_maps holds only the tracker that is still free.
func TestTickBesideFillingTrackerPairsOnce(t *testing.T) {
	w := newRankTwin(t, FIFO)
	jt := overlog.Addr(rankJT)
	hb := func(tr string, used int64) []overlog.Tuple {
		return []overlog.Tuple{overlog.NewTuple("tt_hb", jt, overlog.Addr(tr),
			overlog.Int(1), overlog.Int(1), overlog.Int(used), overlog.Int(0))}
	}
	w.step(t, 0, nil)
	w.input(t, hb("tt:0", 0))
	w.input(t, hb("tt:1", 0))
	w.input(t, []overlog.Tuple{overlog.NewTuple("job_submit", jt, overlog.Int(1), overlog.Int(2), overlog.Int(0)),
		overlog.NewTuple("task_submit", jt, overlog.Int(1), overlog.Int(0), overlog.Str("map")),
		overlog.NewTuple("task_submit", jt, overlog.Int(1), overlog.Int(1), overlog.Str("map"))})
	tick := DefaultMRConfig().SchedTickMS
	for i, rt := range w.rts {
		w.got[i] = w.got[i][:0]
		if _, err := rt.Step(tick, hb("tt:0", 1)); err != nil {
			t.Fatal(err)
		}
		slices.Sort(w.got[i])
	}
	if got, want := strings.Join(w.got[0], " "), "cand_map(@tt:0, 1, 0) cand_map(@tt:1, 1, 0)"; got != want {
		t.Errorf("count ranks derive %s, want the double launch %s", got, want)
	}
	if got, want := strings.Join(w.got[1], " "), "cand_map(@tt:1, 1, 0)"; got != want {
		t.Errorf("sorted lists derive %s, want %s", got, want)
	}
}
