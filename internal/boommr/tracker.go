package boommr

import (
	"fmt"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// MRConfig tunes the MapReduce engine (all times in simulated ms).
type MRConfig struct {
	MapSlots    int
	RedSlots    int
	HeartbeatMS int64
	SchedTickMS int64
	TrackerTTL  int64
	ProgressMS  int64 // progress report interval

	// Duration model for task execution.
	MapBaseMS  int64 // fixed map overhead
	RedBaseMS  int64 // fixed reduce overhead
	BytesPerMS int64 // streaming bandwidth for split/shuffle bytes
	NoisePct   int64 // +/- noise percentage applied per attempt

	// LATE parameters.
	SlowFrac  float64 // an attempt is slow if rate < SlowFrac * avg
	SpecMinMS int64   // min runtime before speculation
	MaxSpec   int     // max speculative attempts per task
}

// DefaultMRConfig mirrors scaled-down Hadoop defaults.
func DefaultMRConfig() MRConfig {
	return MRConfig{
		MapSlots:    2,
		RedSlots:    2,
		HeartbeatMS: 500,
		SchedTickMS: 100,
		TrackerTTL:  2000,
		ProgressMS:  500,
		MapBaseMS:   500,
		RedBaseMS:   800,
		BytesPerMS:  2 << 10,
		NoisePct:    10,
		SlowFrac:    0.5,
		SpecMinMS:   1500,
		MaxSpec:     1,
	}
}

func (c MRConfig) validate() error {
	if c.MapSlots < 1 || c.RedSlots < 1 {
		return fmt.Errorf("boommr: slots must be >= 1")
	}
	if c.HeartbeatMS <= 0 || c.SchedTickMS <= 0 || c.ProgressMS <= 0 {
		return fmt.Errorf("boommr: periods must be positive")
	}
	if c.BytesPerMS <= 0 {
		return fmt.Errorf("boommr: bandwidth must be positive")
	}
	return nil
}

// TaskTracker executes assigned tasks with simulated durations and the
// real Go dataflow. Slowdown models a straggler machine (the paper's
// LATE experiment contaminates the cluster with slow nodes).
type TaskTracker struct {
	Addr     string
	JT       string
	Slowdown float64 // duration multiplier; 1.0 = healthy

	cfg  MRConfig
	reg  *Registry
	rt   *overlog.Runtime
	rng  uint64
	used struct {
		m, r int
	}
	// Executed counts completed attempts by type (experiments).
	MapsRun, RedsRun int64
}

// installTrackerProgram loads the protocol, tracker rules, and boot
// facts onto a runtime (shared between first boot and crash-restart).
func installTrackerProgram(rt *overlog.Runtime, jt string, cfg MRConfig) error {
	if err := rt.InstallSource(MRProtocolDecls); err != nil {
		return err
	}
	if err := rt.InstallSource(trackerRules, cfg.Params()["tracker.olg"]...); err != nil {
		return err
	}
	boot := fmt.Sprintf(`jobtracker("%s"); slot_state("s", %d, %d, 0, 0);`,
		jt, cfg.MapSlots, cfg.RedSlots)
	return rt.InstallSource(boot)
}

// NewTaskTracker adds a tracker node wired to a jobtracker to c, with
// its executor service and its crash-restart spec.
func NewTaskTracker(c Cluster, addr, jt string, cfg MRConfig, reg *Registry) (*TaskTracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if err := installTrackerProgram(rt, jt, cfg); err != nil {
		return nil, err
	}
	tt := &TaskTracker{Addr: rt.LocalAddr(), JT: jt, Slowdown: 1.0, cfg: cfg, reg: reg, rt: rt,
		rng: fnv64(rt.LocalAddr())}
	if err := c.AttachService(addr, &executor{tt: tt}); err != nil {
		return nil, err
	}
	if err := c.SetSpec(addr, tt.RestartSpec()); err != nil {
		return nil, err
	}
	return tt, nil
}

// RestartSpec rebuilds a crashed tracker: rules and boot facts are
// reinstalled and every in-flight attempt vanishes with the old
// runtime — the jobtracker re-schedules them when the tracker's
// heartbeats either resume with empty slots or time out. The cumulative
// MapsRun/RedsRun counters survive (they are an experiment metric, not
// node state).
func (tt *TaskTracker) RestartSpec() sim.NodeSpec {
	return func(fresh *overlog.Runtime) ([]sim.Service, error) {
		if err := installTrackerProgram(fresh, tt.JT, tt.cfg); err != nil {
			return nil, err
		}
		tt.rt = fresh
		tt.used.m, tt.used.r = 0, 0
		return []sim.Service{&executor{tt: tt}}, nil
	}
}

// Runtime exposes the tracker's runtime.
func (tt *TaskTracker) Runtime() *overlog.Runtime { return tt.rt }

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h | 1
}

// nextNoise returns a deterministic multiplier in [1-p, 1+p].
func (tt *TaskTracker) nextNoise() float64 {
	tt.rng = tt.rng*6364136223846793005 + 1442695040888963407
	p := float64(tt.cfg.NoisePct) / 100
	frac := float64(tt.rng>>11) / float64(1<<53)
	return 1 - p + 2*p*frac
}

// duration computes an attempt's simulated runtime.
func (tt *TaskTracker) duration(j *Job, taskType string, idx int64) int64 {
	var base, bytes int64
	if taskType == "map" {
		base = tt.cfg.MapBaseMS
		bytes = int64(j.mapBytes(idx))
	} else {
		base = tt.cfg.RedBaseMS
		bytes = int64(j.shuffleBytes(idx - int64(j.NumMap())))
	}
	d := float64(base+bytes/tt.cfg.BytesPerMS) * tt.Slowdown * tt.nextNoise()
	if d < 1 {
		d = 1
	}
	return int64(d)
}

// executor is the tracker's imperative task runner: it accepts or
// rejects assignments against slot capacity, schedules progress and
// completion events over simulated time, and performs the actual
// map/reduce computation at completion.
type executor struct {
	tt *TaskTracker
}

func (e *executor) Tables() []string { return []string{"assign", "local_done"} }

func (e *executor) OnEvent(env sim.Env, ev overlog.WatchEvent) []sim.Injection {
	tt := e.tt
	switch ev.Tuple.Table {
	case "assign":
		return tt.onAssign(ev.Tuple)
	case "local_done":
		return tt.onDone(ev.Tuple)
	}
	return nil
}

func (tt *TaskTracker) onAssign(tp overlog.Tuple) []sim.Injection {
	jobID := tp.Vals[1].AsInt()
	taskID := tp.Vals[2].AsInt()
	attemptID := tp.Vals[3].AsInt()
	taskType := tp.Vals[4].AsString()

	reject := func() []sim.Injection {
		return []sim.Injection{{
			To: tt.JT,
			Tuple: overlog.NewTuple("assign_reject",
				overlog.Addr(tt.JT), overlog.Int(jobID), overlog.Int(taskID),
				overlog.Int(attemptID), overlog.Addr(tt.Addr)),
		}}
	}
	job, ok := tt.reg.Get(jobID)
	if !ok {
		return reject()
	}
	if taskType == "map" {
		if tt.used.m >= tt.cfg.MapSlots {
			return reject()
		}
		tt.used.m++
	} else {
		if tt.used.r >= tt.cfg.RedSlots {
			return reject()
		}
		tt.used.r++
	}
	dur := tt.duration(job, taskType, taskID)
	out := tt.slotUpdate()
	// Progress reports at fixed intervals, routed through this node so
	// they die with it.
	for t := tt.cfg.ProgressMS; t < dur; t += tt.cfg.ProgressMS {
		out = append(out, sim.Injection{
			To: tt.Addr,
			Tuple: overlog.NewTuple("local_progress",
				overlog.Int(jobID), overlog.Int(taskID), overlog.Int(attemptID),
				overlog.Float(float64(t)/float64(dur))),
			DelayMS: t,
		})
	}
	out = append(out, sim.Injection{
		To: tt.Addr,
		Tuple: overlog.NewTuple("local_done",
			overlog.Int(jobID), overlog.Int(taskID), overlog.Int(attemptID),
			overlog.Bool(true)),
		DelayMS: dur,
	})
	return out
}

func (tt *TaskTracker) onDone(tp overlog.Tuple) []sim.Injection {
	jobID := tp.Vals[0].AsInt()
	taskID := tp.Vals[1].AsInt()
	job, ok := tt.reg.Get(jobID)
	if !ok {
		return nil
	}
	// Perform the real dataflow now: a killed tracker never publishes.
	if taskID < int64(job.NumMap()) {
		job.runMap(taskID)
		tt.MapsRun++
		if tt.used.m > 0 {
			tt.used.m--
		}
	} else {
		job.runReduce(taskID - int64(job.NumMap()))
		tt.RedsRun++
		if tt.used.r > 0 {
			tt.used.r--
		}
	}
	return tt.slotUpdate()
}

// slotUpdate refreshes the slot_state table read by heartbeat rules.
func (tt *TaskTracker) slotUpdate() []sim.Injection {
	return []sim.Injection{{
		To: tt.Addr,
		Tuple: overlog.NewTuple("slot_state", overlog.Str("s"),
			overlog.Int(int64(tt.cfg.MapSlots)), overlog.Int(int64(tt.cfg.RedSlots)),
			overlog.Int(int64(tt.used.m)), overlog.Int(int64(tt.used.r))),
	}}
}
