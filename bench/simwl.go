package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/kvstore"
	"repro/internal/loadgen"
	"repro/internal/overlog"
	"repro/internal/partition"
	"repro/internal/paxos"
	"repro/internal/sim"
)

// simRun is what the three virtual-clock workloads share: a cluster,
// an open-loop loadgen.Generator, and the bookkeeping that turns
// completions into wall-clock latencies, op spans and failure counts.
type simRun struct {
	e   *env
	c   *sim.Cluster
	gen *loadgen.Generator // the stream completions currently belong to

	timed    bool
	total    int
	notOK    int
	issuedAt map[string]time.Time // op id → wall clock at issue, until it completes
	latMS    []float64            // wall ms from issue to completion of each op answered OK
	res      loadgen.Result
	c0, c1   simCounters // around the timed stream
	virt0    int64
}

type simCounters struct{ steps, nodeSteps, delivered int64 }

func newSimRun(e *env) *simRun {
	return &simRun{e: e, c: sim.NewCluster(sim.WithClusterSeed(e.cfg.seed)), issuedAt: map[string]time.Time{}}
}

func (s *simRun) counters() simCounters {
	n := simCounters{steps: s.c.Steps(), delivered: s.c.DeliveredTotal()}
	for _, rt := range s.c.Runtimes() {
		n.nodeSteps += rt.StepCount()
	}
	return n
}

// attachAll hooks every runtime in the cluster (traced runs).
func (s *simRun) attachAll(tag func(overlog.Tuple) string) {
	if s.e.tr == nil {
		return
	}
	s.e.tr.tag = tag
	for _, addr := range s.c.Nodes() {
		rt := s.c.Node(addr)
		s.e.tr.attach(addr, func(fn func(*overlog.Runtime)) { fn(rt) })
	}
}

// watch routes inserts into table on rt to complete, which returns the
// op id and whether the op succeeded.
func (s *simRun) watch(rt *overlog.Runtime, table string, complete func(overlog.Tuple) (string, bool)) error {
	if err := rt.AddWatch(table, "i"); err != nil {
		return err
	}
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if !ev.Insert || ev.Tuple.Table != table || s.gen == nil {
			return
		}
		id, ok := complete(ev.Tuple)
		s.gen.Complete(id, ev.Time)
		issued, pending := s.issuedAt[id]
		if !s.timed || !pending { // a second reply to one op is not a second op
			return
		}
		delete(s.issuedAt, id)
		if !ok {
			s.notOK++
			return
		}
		end := time.Now()
		s.latMS = append(s.latMS, float64(end.Sub(issued).Nanoseconds())/1e6)
		if tr := s.e.tr; tr != nil {
			tr.opDone(id, table, issued.Sub(tr.t0).Nanoseconds(), end.Sub(tr.t0).Nanoseconds())
		}
	})
	return nil
}

// stream runs ops operations through a fresh generator to completion.
func (s *simRun) stream(arr loadgen.Arrivals, ops int, timeoutMS int64, timed bool, issue func(i int64) string) error {
	s.timed, s.total = timed, ops
	if timed {
		s.c0, s.virt0 = s.counters(), s.c.Now()
		if s.e.tr != nil {
			s.e.tr.opsTotal.Store(int64(ops))
		}
	}
	s.gen = loadgen.NewGenerator(s.c, arr, s.e.cfg.seed+1, int64(ops), timeoutMS, func(i int64) (string, error) {
		start := time.Now()
		id := issue(i)
		if timed {
			s.issuedAt[id] = start
		}
		return id, nil
	})
	horizon := s.c.Now() + int64(float64(ops)/arr.Rate()*1000) + 2*timeoutMS + 60_000
	res, err := s.gen.Run(s.c.Now()+1, horizon)
	s.gen, s.timed = nil, false
	if err != nil {
		return err
	}
	if timed {
		s.c1 = s.counters()
	}
	if !timed && (res.Completed != int64(ops) || res.Latency.Timeouts > 0) {
		return fmt.Errorf("warm-up: %d of %d ops completed, %d timed out", res.Completed, ops, res.Latency.Timeouts)
	}
	s.res = res
	return nil
}

func (s *simRun) stats() runStats {
	lost := int(s.res.IssueErrors + s.res.Latency.Timeouts + s.res.Latency.Unfinished)
	return runStats{attempted: s.total, failed: lost + s.notOK, latMS: s.latMS}
}

func (s *simRun) simLayers(m map[string]float64, rs runStats, wallS float64) {
	ops := float64(rs.attempted - rs.failed)
	c1 := s.c1
	steps := float64(c1.steps - s.c0.steps)
	m["virt_op_ms_p99"] = float64(s.res.Latency.P99MS)
	m["sim.steps"] = steps
	m["sim.node_steps"] = float64(c1.nodeSteps - s.c0.nodeSteps)
	m["sim.wall_us_per_step"] = wallS * 1e6 / steps
	m["sim.delivered_per_op"] = float64(c1.delivered-s.c0.delivered) / ops
	m["sim.virt_ms_per_wall_s"] = float64(s.res.VirtualMS-s.virt0) / wallS
	m["sim.sched_share"] = 1 - m["overlog.fixpoint_busy_s"]/wallS
}

// ---- fs_sim ---------------------------------------------------------

type fsSim struct {
	*simRun
	fss  []*partition.FS
	gens []*fsGen
}

func newFSSim(e *env) (instance, error) {
	const masters, clients = 4, 4
	w := &fsSim{simRun: newSimRun(e)}
	cfg := boomfs.DefaultConfig()
	var addrs []string
	err := e.install(func() (err error) {
		_, addrs, err = partition.NewMasters(w.c, "fsm", masters, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		err := e.install(func() error {
			cl, err := boomfs.NewClient(w.c, fmt.Sprintf("lc:%d", i), cfg, addrs...)
			if err != nil {
				return err
			}
			fs, err := partition.NewFS(cl, addrs)
			if err != nil {
				return err
			}
			g := newFSGen(e.cfg.seed, i)
			g.sameShard = func(a, b string) bool { return fs.MasterFor(a) == fs.MasterFor(b) }
			w.fss, w.gens = append(w.fss, fs), append(w.gens, g)
			return w.watch(cl.Runtime(), "resp_log", func(tp overlog.Tuple) (string, bool) {
				return tp.Vals[0].AsString(), tp.Vals[1].AsBool()
			})
		})
		if err != nil {
			return nil, err
		}
	}
	w.attachAll(func(tp overlog.Tuple) string {
		if tp.Table == "request" || tp.Table == "response" {
			return tp.Vals[1].AsString()
		}
		return ""
	})
	if err := w.fss[0].Mkdir("/load"); err != nil {
		return nil, err
	}
	if err := w.ops(e.warm(200)*clients, false); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *fsSim) ops(n int, timed bool) error {
	return w.stream(loadgen.Poisson(500), n, 30_000, timed, func(i int64) string {
		ci := int(i) % len(w.fss)
		op := w.gens[ci].next()
		return w.fss[ci].SendAsync(op.kind, op.path, op.arg)
	})
}

func (w *fsSim) run() (runStats, error) {
	err := w.ops(w.e.n(100_000), true)
	return w.stats(), err
}

func (w *fsSim) check() error {
	for ci, fs := range w.fss {
		if err := w.gens[ci].checkPaths(1000/len(w.fss), fs.Exists); err != nil {
			return err
		}
	}
	return nil
}

func (w *fsSim) layers(m map[string]float64, rs runStats, wallS float64) { w.simLayers(m, rs, wallS) }
func (w *fsSim) close()                                                  {}

// ---- kv_sim_paxos ---------------------------------------------------

type kvSim struct {
	*simRun
	group      *kvstore.Group
	cl         *kvstore.Client
	pcfg       paxos.Config
	rng        *rand.Rand
	pending    map[string][2]string // op id → key, value
	acked      map[string]string    // key → last acknowledged value
	px0, px1   paxosState
	failoverMS int64
}

func newKVSim(e *env) (instance, error) {
	w := &kvSim{simRun: newSimRun(e), pcfg: paxos.DefaultConfig(), rng: rand.New(rand.NewSource(e.cfg.seed + 2)),
		pending: map[string][2]string{}, acked: map[string]string{}}
	err := e.install(func() (err error) {
		if w.group, err = kvstore.NewGroup(w.c, "kv", 3, w.pcfg); err != nil {
			return err
		}
		w.cl, err = kvstore.NewClient(w.c, "kvc:0", w.group)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = w.watch(w.cl.Runtime(), "kvr", func(tp overlog.Tuple) (string, bool) {
		id := tp.Vals[0].AsString()
		if kv, ok := w.pending[id]; ok {
			w.acked[kv[0]] = kv[1]
			delete(w.pending, id)
		}
		return id, true
	})
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		e.tr.replicas = map[string]bool{}
		for _, r := range w.group.Replicas {
			e.tr.replicas[r] = true
		}
	}
	w.attachAll(func(tp overlog.Tuple) string {
		if tp.Table == "kv_put" || tp.Table == "kv_resp" {
			return tp.Vals[1].AsString()
		}
		return ""
	})
	// A synchronous put elects a leader and leaves the client pointed at it.
	if err := w.cl.Put("warmup", "1"); err != nil {
		return nil, err
	}
	if err := w.puts(e.warm(200), false); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *kvSim) puts(n int, timed bool) error {
	return w.stream(loadgen.FixedRate(100), n, 30_000, timed, func(i int64) string {
		key, val := fmt.Sprintf("k%04d", w.rng.Intn(64)), fmt.Sprintf("v%d-%d", w.c.Now(), i)
		id := w.cl.SendPut(key, val)
		w.pending[id] = [2]string{key, val}
		return id
	})
}

func (w *kvSim) paxosState() paxosState {
	var st paxosState
	for _, r := range w.group.Replicas {
		if !w.c.Killed(r) {
			st.observe(w.c.Node(r), w.pcfg.BallotStride)
		}
	}
	return st
}

func (w *kvSim) run() (runStats, error) {
	w.px0 = w.paxosState()
	err := w.puts(w.e.n(2500), true)
	w.px1 = w.paxosState()
	return w.stats(), err
}

// readable checks every acknowledged put on every live replica.
func (w *kvSim) readable(when string) error {
	keys := make([]string, 0, len(w.acked))
	for k := range w.acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, r := range w.group.Replicas {
		if w.c.Killed(r) {
			continue
		}
		for _, k := range keys {
			if got, _ := w.group.ReplicaValue(i, k); got != w.acked[k] {
				return fmt.Errorf("%s failover: %s on %s = %q, last acknowledged %q", when, k, r, got, w.acked[k])
			}
		}
	}
	return nil
}

// check runs the untimed failover tail: kill the leader at a seeded
// instant, issue synchronous puts for 5 virtual seconds, and require
// every acknowledged put on every live replica before and after.
func (w *kvSim) check() error {
	if w.px1.round != w.px0.round {
		return fmt.Errorf("%d election(s) during the timed phase: run invalid", w.px1.round-w.px0.round)
	}
	settle := func() error { return w.c.Run(w.c.Now() + 2*w.pcfg.SyncMS) }
	if err := settle(); err != nil {
		return err
	}
	if err := w.readable("before"); err != nil {
		return err
	}
	leader := ""
	for _, r := range w.group.Replicas {
		if len(w.c.Node(r).Table("is_leader").Match([]int{1}, []overlog.Value{overlog.Bool(true)})) > 0 {
			leader = r
		}
	}
	if leader == "" {
		return fmt.Errorf("no leader to kill")
	}
	if err := w.c.Run(w.c.Now() + 1 + w.rng.Int63n(w.pcfg.TickMS)); err != nil {
		return err
	}
	w.c.Kill(leader)
	killed := w.c.Now()
	w.cl.RetryMS = 500
	for i := 0; w.c.Now() < killed+5000; i++ {
		// Fresh keys: a retry of an unanswered put may commit late, and
		// must not overwrite a newer acknowledged value.
		key, val := fmt.Sprintf("tail%04d", i), fmt.Sprintf("t%d", i)
		w.cl.TimeoutMS = killed + 5000 - w.c.Now()
		if err := w.cl.Put(key, val); err != nil {
			continue
		}
		if w.failoverMS == 0 {
			w.failoverMS = w.c.Now() - killed
		}
		w.acked[key] = val
	}
	if w.failoverMS == 0 {
		return fmt.Errorf("no put committed within 5 virtual seconds of killing %s", leader)
	}
	if err := settle(); err != nil {
		return err
	}
	return w.readable("after")
}

func (w *kvSim) layers(m map[string]float64, rs runStats, wallS float64) {
	w.simLayers(m, rs, wallS)
	m["virt_failover_ms"] = float64(w.failoverMS)
	w.e.tr.paxosPerCommit(m, w.px1.decided-w.px0.decided)
	m["paxos.decided_end"] = float64(w.px1.decided)
	m["paxos.elections"] = float64(w.px1.round - w.px0.round)
}

func (w *kvSim) close() {}

// ---- mr_sim ---------------------------------------------------------

type mrSim struct {
	*simRun
	jt       *boommr.JobTracker
	trackers []*boommr.TaskTracker
	splits   []string
	jobs     []*boommr.Job
	tasks0   int64
}

// corpus makes n splits of about size bytes of seeded words.
func corpus(seed int64, n, size int) []string {
	words := strings.Fields("boom overlog datalog paxos hadoop rule table tuple fixpoint join lattice cloud analytics master chunk tracker")
	r := rand.New(rand.NewSource(seed))
	splits := make([]string, n)
	for i := range splits {
		var b strings.Builder
		for b.Len() < size {
			b.WriteString(words[r.Intn(len(words))*r.Intn(len(words))/len(words)])
			b.WriteByte(' ')
		}
		splits[i] = b.String()
	}
	return splits
}

func newMRSim(e *env) (instance, error) {
	w := &mrSim{simRun: newSimRun(e), splits: corpus(e.cfg.seed, 8, 512)}
	mrc := boommr.DefaultMRConfig()
	reg := boommr.NewRegistry()
	err := e.install(func() (err error) {
		if w.jt, err = boommr.NewJobTracker(w.c, "jt:0", boommr.FIFO, mrc, reg); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			tt, err := boommr.NewTaskTracker(w.c, fmt.Sprintf("tt:%d", i), w.jt.Addr, mrc, reg)
			if err != nil {
				return err
			}
			w.trackers = append(w.trackers, tt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	jobID := func(id int64) string { return fmt.Sprintf("job:%d", id) }
	err = w.watch(w.jt.Runtime(), "job_done_at", func(tp overlog.Tuple) (string, bool) {
		return jobID(tp.Vals[0].AsInt()), true
	})
	if err != nil {
		return nil, err
	}
	w.attachAll(func(tp overlog.Tuple) string {
		if tp.Table == "job_submit" || tp.Table == "task_submit" {
			return jobID(tp.Vals[1].AsInt())
		}
		return ""
	})
	// Trackers heartbeat in before any job arrives.
	if err := w.c.Run(mrc.HeartbeatMS*2 + 10); err != nil {
		return nil, err
	}
	if err := w.submit(e.warm(200)/20, false); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *mrSim) tasksRun() int64 {
	var n int64
	for _, tt := range w.trackers {
		n += tt.MapsRun + tt.RedsRun
	}
	return n
}

func (w *mrSim) submit(n int, timed bool) error {
	if n < 1 {
		n = 1
	}
	return w.stream(loadgen.FixedRate(1), n, 120_000, timed, func(int64) string {
		job := boommr.NewJob(w.jt.NewJobID(), w.splits, 2, boommr.WordCountMap, boommr.WordCountReduce)
		w.jt.Submit(job)
		if timed {
			w.jobs = append(w.jobs, job)
		}
		return fmt.Sprintf("job:%d", job.ID)
	})
}

func (w *mrSim) run() (runStats, error) {
	w.tasks0 = w.tasksRun()
	err := w.submit(w.e.n(400), true)
	return w.stats(), err
}

func (w *mrSim) check() error {
	want := map[string]int{}
	for _, s := range w.splits {
		for _, word := range strings.Fields(s) {
			want[word]++
		}
	}
	job := w.jobs[rand.New(rand.NewSource(w.e.cfg.seed)).Intn(len(w.jobs))]
	got := job.Output()
	if len(got) != len(want) {
		return fmt.Errorf("job %d: %d distinct words, want %d", job.ID, len(got), len(want))
	}
	for word, n := range want {
		if got[word] != fmt.Sprint(n) {
			return fmt.Errorf("job %d: count(%s) = %s, want %d", job.ID, word, got[word], n)
		}
	}
	submitted := int64(len(w.jobs)) * int64(len(w.splits)+2)
	if ran := w.tasksRun() - w.tasks0; ran < submitted {
		return fmt.Errorf("%d tasks ran, %d submitted", ran, submitted)
	}
	return nil
}

func (w *mrSim) layers(m map[string]float64, rs runStats, wallS float64) {
	w.simLayers(m, rs, wallS)
	m["boommr.job_virt_ms_p50"] = float64(w.res.Latency.P50MS)
	m["boommr.tasks_per_job"] = float64(w.tasksRun()-w.tasks0) / float64(len(w.jobs))
}

func (w *mrSim) close() {}
