package boommr

import (
	"fmt"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// Policy selects the scheduling rule set installed on the JobTracker.
type Policy int

// Scheduling policies (the paper's swappable rule sets). FAIR is this
// reproduction's extension beyond the published FIFO and LATE.
const (
	FIFO Policy = iota
	LATE
	FAIR
)

func (p Policy) String() string {
	switch p {
	case LATE:
		return "LATE"
	case FAIR:
		return "FAIR"
	}
	return "FIFO"
}

// JobTracker is the BOOM-MR scheduler node. All scheduling behaviour
// is Overlog: jobtracker.olg (machinery) + the selected policy rules.
// The handle drives its node through the cluster it was added to, so
// the same Submit and Wait run on the simulator and over TCP.
type JobTracker struct {
	Addr   string
	Policy Policy
	rt     *overlog.Runtime
	reg    *Registry
	nextID int64
	c      Cluster
}

// Cluster is what the MR constructors need of a cluster driver,
// sim.Cluster or chaos/live's: nodes to add, injections into them,
// reads under the driver's serialization, and a run loop.
type Cluster interface {
	AddNode(name string, opts ...overlog.Option) (*overlog.Runtime, error)
	AttachService(name string, svc sim.Service) error
	SetSpec(name string, spec sim.NodeSpec) error
	Inject(node string, tp overlog.Tuple, delayMS int64)
	RunOn(node string, fn func(*overlog.Runtime))
	RunUntil(cond func() bool, maxMS int64) (bool, error)
	Now() int64
}

// NewJobTracker adds the scheduler node addr to c.
func NewJobTracker(c Cluster, addr string, policy Policy, cfg MRConfig, reg *Registry) (*JobTracker, error) {
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if err := installJobTracker(rt, policy, cfg); err != nil {
		return nil, err
	}
	return &JobTracker{Addr: rt.LocalAddr(), Policy: policy, rt: rt, reg: reg, c: c}, nil
}

// Deploy adds a JobTracker jt:0 running policy and task trackers
// tt:0..trackers-1, each with its executor and restart spec, to c.
func Deploy(c Cluster, trackers int, policy Policy, cfg MRConfig, reg *Registry) (*JobTracker, []*TaskTracker, error) {
	jt, err := NewJobTracker(c, "jt:0", policy, cfg, reg)
	if err != nil {
		return nil, nil, err
	}
	var tts []*TaskTracker
	for i := 0; i < trackers; i++ {
		tt, err := NewTaskTracker(c, fmt.Sprintf("tt:%d", i), jt.Addr, cfg, reg)
		if err != nil {
			return nil, nil, err
		}
		tts = append(tts, tt)
	}
	return jt, tts, nil
}

// installJobTracker loads the protocol, machinery and policy rule sets
// onto a runtime.
func installJobTracker(rt *overlog.Runtime, policy Policy, cfg MRConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if err := rt.InstallSource(MRProtocolDecls); err != nil {
		return err
	}
	params := cfg.Params()
	if err := rt.InstallSource(jobTrackerRules, params["jobtracker.olg"]...); err != nil {
		return err
	}
	switch policy {
	case FAIR:
		return rt.InstallSource(policyFAIR)
	case LATE:
		if err := rt.InstallSource(policyFIFO); err != nil {
			return err
		}
		return rt.InstallSource(policyLATE, params["late.olg"]...)
	}
	return rt.InstallSource(policyFIFO)
}

// Runtime exposes the scheduler's runtime (on the simulator; over TCP
// the node loop owns it).
func (jt *JobTracker) Runtime() *overlog.Runtime { return jt.rt }

// Submit registers a job and streams its task definitions to the
// scheduler. Map tasks get ids 0..NumMap-1; reduce tasks follow.
func (jt *JobTracker) Submit(j *Job) {
	jt.reg.Register(j)
	jt.c.Inject(jt.Addr, overlog.NewTuple("job_submit",
		overlog.Addr(jt.Addr), overlog.Int(j.ID),
		overlog.Int(int64(j.NumMap())), overlog.Int(int64(j.NumRed))), 0)
	for t := 0; t < j.NumMap(); t++ {
		jt.c.Inject(jt.Addr, overlog.NewTuple("task_submit",
			overlog.Addr(jt.Addr), overlog.Int(j.ID), overlog.Int(int64(t)),
			overlog.Str("map")), 0)
	}
	for t := 0; t < j.NumRed; t++ {
		jt.c.Inject(jt.Addr, overlog.NewTuple("task_submit",
			overlog.Addr(jt.Addr), overlog.Int(j.ID), overlog.Int(int64(j.NumMap()+t)),
			overlog.Str("reduce")), 0)
	}
}

// NewJobID allocates a job id.
func (jt *JobTracker) NewJobID() int64 {
	jt.nextID++
	return jt.nextID
}

// jobRow looks a job up in the scheduler's job table.
func jobRow(rt *overlog.Runtime, jobID int64) (overlog.Tuple, bool) {
	return rt.Table("job").LookupKey(overlog.NewTuple("job",
		overlog.Int(jobID), overlog.Int(0), overlog.Int(0), overlog.Int(0), overlog.Str("")))
}

// JobState reads the scheduler's view of a job ("running", "done", or
// "" when unknown).
func (jt *JobTracker) JobState(jobID int64) (state string) {
	jt.c.RunOn(jt.Addr, func(rt *overlog.Runtime) {
		if tp, ok := jobRow(rt, jobID); ok {
			state = tp.Vals[4].AsString()
		}
	})
	return state
}

// Wait runs the cluster until the job completes or maxMS elapses.
func (jt *JobTracker) Wait(jobID int64, maxMS int64) (bool, error) {
	return jt.c.RunUntil(func() bool { return jt.JobState(jobID) == "done" },
		jt.c.Now()+maxMS)
}

// TaskCompletion is one task's lifecycle record for CDF plots.
type TaskCompletion struct {
	JobID    int64
	TaskID   int64
	Type     string
	Submit   int64 // job submit time
	DoneAt   int64
	Duration int64 // DoneAt - Submit: the paper plots time-since-job-start
}

// Completions returns per-task completion records for a job, sorted by
// completion time.
func (jt *JobTracker) Completions(jobID int64) (out []TaskCompletion) {
	jt.c.RunOn(jt.Addr, func(rt *overlog.Runtime) { out = completions(rt, jobID) })
	return out
}

func completions(rt *overlog.Runtime, jobID int64) []TaskCompletion {
	var submit int64
	if tp, ok := jobRow(rt, jobID); ok {
		submit = tp.Vals[1].AsInt()
	}
	var out []TaskCompletion
	rt.Table("task_done_at").Scan(func(tp overlog.Tuple) bool {
		if tp.Vals[0].AsInt() != jobID {
			return true
		}
		done := tp.Vals[3].AsInt()
		out = append(out, TaskCompletion{
			JobID:    jobID,
			TaskID:   tp.Vals[1].AsInt(),
			Type:     tp.Vals[2].AsString(),
			Submit:   submit,
			DoneAt:   done,
			Duration: done - submit,
		})
		return true
	})
	sortCompletions(out)
	return out
}

func sortCompletions(cs []TaskCompletion) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].DoneAt < cs[j-1].DoneAt; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// JobDoneAt returns when the scheduler observed job completion.
func (jt *JobTracker) JobDoneAt(jobID int64) (at int64, ok bool) {
	jt.c.RunOn(jt.Addr, func(rt *overlog.Runtime) {
		var tp overlog.Tuple
		if tp, ok = rt.Table("job_done_at").LookupKey(overlog.NewTuple("job_done_at",
			overlog.Int(jobID), overlog.Int(0))); ok {
			at = tp.Vals[1].AsInt()
		}
	})
	return at, ok
}

// SpeculativeAttempts counts speculative attempts launched (LATE
// bookkeeping for the experiments).
func (jt *JobTracker) SpeculativeAttempts(jobID int64) int {
	n := 0
	seen := map[int64]int{}
	jt.c.RunOn(jt.Addr, func(rt *overlog.Runtime) {
		rt.Table("attempt").Scan(func(tp overlog.Tuple) bool {
			if tp.Vals[0].AsInt() == jobID {
				seen[tp.Vals[1].AsInt()]++
			}
			return true
		})
	})
	for _, c := range seen {
		if c > 1 {
			n += c - 1
		}
	}
	return n
}
