package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overlog"
)

// maxStepSpans and maxOpSpans bound the records kept for the trace
// file; the counters and quantiles below still see every step and op.
const (
	maxStepSpans = 100_000
	maxOpSpans   = 50_000
)

// tracer is the benchmark's own instrumentation for a traced run:
// step hooks and the rule profiler on every runtime it can reach, op
// records from the load generator, all stamped on one ns clock (the
// built-in span tracer stamps UnixMilli, too coarse for a 3 ms op).
type tracer struct {
	t0        time.Time
	recording atomic.Bool  // true only during the timed phase
	opsDone   atomic.Int64 // completed ops, for overlog.step_growth
	opsTotal  atomic.Int64 // ops the timed phase will issue; set by the workload once it is recording

	// tag maps a tuple to the id of the client op it belongs to ("" if
	// none); live marks the rtfs rows, where request/response tuples
	// also split each op into wire, serve and wait.
	tag  func(overlog.Tuple) string
	live bool
	// replicas names the Paxos group, so replica-to-replica envelopes
	// and replica steps can be counted per commit.
	replicas map[string]bool

	mu        sync.Mutex
	nodes     []string
	access    []func(func(*overlog.Runtime))
	stepUS    []float64
	busyNS    int64
	decileNS  [10]int64
	decileN   [10]int64
	derived   int64
	inserted  int64
	stored    []int64 // last Stored per node
	peerMsgs  int64
	peerSteps int64
	steps     []stepRec
	dropped   int64
	consumed  map[string]int64 // op id → start of the first server step that consumed its request
	responded map[string]int64 // op id → end of the first server step whose outbox carried its response
	ops       []opRec
	ruleBase  [][]overlog.RuleProfile // per node, at the start of the timed phase
	rules     []ruleRow               // the timed phase's share, filled by end
}

type stepRec struct {
	node    int
	startNS int64
	endNS   int64
	op      string
}

type opRec struct {
	id      string
	kind    string
	startNS int64
	endNS   int64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, tag: func(overlog.Tuple) string { return "" },
		consumed: map[string]int64{}, responded: map[string]int64{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// attach hooks one runtime. access must give serialized access to it
// (Node.Runtime on live nodes, a direct call on the simulator).
func (t *tracer) attach(node string, access func(func(*overlog.Runtime))) {
	t.mu.Lock()
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node)
	t.access = append(t.access, access)
	t.stored = append(t.stored, 0)
	t.mu.Unlock()
	access(func(rt *overlog.Runtime) {
		rt.SetProfiling(true)
		rt.AddStepHook(func(st overlog.StepStats) { t.step(idx, node, st) })
	})
}

func (t *tracer) step(idx int, node string, st overlog.StepStats) {
	if !t.recording.Load() {
		return
	}
	end := t.now()
	start := end - st.DurationNS
	decile := 0
	if total := t.opsTotal.Load(); total > 0 {
		decile = int(t.opsDone.Load() * 10 / total)
		if decile > 9 {
			decile = 9
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	op := ""
	for _, tp := range st.Consumed {
		id := t.tag(tp)
		if id == "" {
			continue
		}
		if op == "" {
			op = id
		}
		if t.live {
			if _, seen := t.consumed[id]; !seen {
				t.consumed[id] = start
			}
		}
	}
	for _, env := range st.Outbox {
		if t.live && env.Tuple.Table == "response" {
			id := env.Tuple.Vals[1].AsString()
			if _, seen := t.responded[id]; !seen {
				t.responded[id] = end
			}
		}
		if t.replicas[node] && t.replicas[env.To] && env.To != node {
			t.peerMsgs++
		}
	}
	if t.replicas[node] {
		t.peerSteps++
	}
	t.stepUS = append(t.stepUS, float64(st.DurationNS)/1e3)
	t.busyNS += st.DurationNS
	t.decileNS[decile] += st.DurationNS
	t.decileN[decile]++
	t.derived += st.Derived
	t.inserted += st.Inserted
	t.stored[idx] = st.Stored
	if len(t.steps) < maxStepSpans {
		t.steps = append(t.steps, stepRec{node: idx, startNS: start, endNS: end, op: op})
	} else {
		t.dropped++
	}
}

// opDone records one client op (load-generator side).
func (t *tracer) opDone(id, kind string, startNS, endNS int64) {
	t.opsDone.Add(1)
	t.mu.Lock()
	if len(t.ops) < maxOpSpans {
		t.ops = append(t.ops, opRec{id: id, kind: kind, startNS: startNS, endNS: endNS})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// paxosPerCommit fills the Paxos rows' per-commit costs from the
// replica-to-replica envelopes and replica steps the hooks counted.
func (t *tracer) paxosPerCommit(m map[string]float64, commits int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if commits > 0 {
		m["paxos.msgs_per_commit"] = float64(t.peerMsgs) / float64(commits)
		m["paxos.steps_per_commit"] = float64(t.peerSteps) / float64(commits)
	}
}

// ruleRow is one line of the per-rule table in the trace file.
type ruleRow struct {
	Node    string `json:"node"`
	Program string `json:"program"`
	Rule    string `json:"rule"`
	Fires   int64  `json:"fires"`
	WallNS  int64  `json:"wall_ns"`
}

// begin starts the timed phase: it notes every runtime's rule counters,
// which set-up and warm-up have already moved, and turns recording on.
func (t *tracer) begin() {
	t.ruleBase = make([][]overlog.RuleProfile, len(t.access))
	for i, access := range t.access {
		access(func(rt *overlog.Runtime) { t.ruleBase[i] = rt.RuleProfiles() })
	}
	t.recording.Store(true)
}

// end stops recording and keeps what each rule did since begin, before
// the correctness check runs ops of its own.
func (t *tracer) end() {
	t.recording.Store(false)
	for i, access := range t.access {
		node, base := t.nodes[i], t.ruleBase[i]
		access(func(rt *overlog.Runtime) {
			for j, p := range rt.RuleProfiles() { // install order, as in base
				fires, wallNS := p.Fires-base[j].Fires, p.WallNS-base[j].WallNS
				if fires == 0 && wallNS == 0 {
					continue
				}
				t.rules = append(t.rules, ruleRow{Node: node, Program: p.Program, Rule: p.Rule, Fires: fires, WallNS: wallNS})
			}
		})
	}
	sort.SliceStable(t.rules, func(i, j int) bool { return t.rules[i].WallNS > t.rules[j].WallNS })
}

// layerOfProgram maps an Overlog program name to the module that owns it.
func layerOfProgram(prog string) string {
	switch {
	case prog == "paxos":
		return "paxos"
	case strings.HasPrefix(prog, "boomfs"):
		return "boomfs"
	case strings.HasPrefix(prog, "boommr"):
		return "boommr"
	case prog == "kvstore" || prog == "kvclient":
		return "kvstore"
	}
	return "other"
}

// layers fills the metrics every hooked workload shares.
func (t *tracer) layers(m map[string]float64, ops, wallS float64) {
	t.mu.Lock()
	if len(t.stepUS) > 0 {
		m["overlog.fixpoint_busy_s"] = float64(t.busyNS) / 1e9
		m["overlog.steps"] = float64(len(t.stepUS))
		m["overlog.step_us_p50"] = quantile(t.stepUS, 0.5)
		m["overlog.step_us_p99"] = quantile(t.stepUS, 0.99)
		if t.decileN[0] > 0 && t.decileN[9] > 0 {
			first := float64(t.decileNS[0]) / float64(t.decileN[0])
			last := float64(t.decileNS[9]) / float64(t.decileN[9])
			m["overlog.step_growth"] = last / first
		}
		m["overlog.derived_per_op"] = float64(t.derived) / ops
		m["overlog.inserted_per_op"] = float64(t.inserted) / ops
		if t.derived > 0 {
			m["overlog.dedup_ratio"] = float64(t.inserted) / float64(t.derived)
		}
		var stored int64
		for _, s := range t.stored {
			stored += s
		}
		m["overlog.stored_end"] = float64(stored)
	}
	t.mu.Unlock()

	byLayer, byRule := map[string]int64{}, map[string]int64{}
	var total, top int64
	for _, r := range t.rules {
		byLayer[layerOfProgram(r.Program)] += r.WallNS
		total += r.WallNS
		rule := r.Program + "/" + r.Rule // one rule runs on several nodes
		byRule[rule] += r.WallNS
		if byRule[rule] > top {
			top = byRule[rule]
		}
	}
	if total > 0 {
		m["overlog.rule_top1_share"] = float64(top) / float64(total)
		for _, layer := range []string{"paxos", "boomfs", "boommr", "kvstore"} {
			m[layer+".rule_time_share"] = float64(byLayer[layer]) / float64(total)
		}
	}
	if t.live {
		t.liveSegments(m)
	}
}

// liveSegments splits every rtfs op at the two server-side instants
// the hooks saw. The three segments of an op sum to its latency, so
// their means sum to rtfs.op_ms_mean.
func (t *tracer) liveSegments(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wire, serve, wait, whole float64
	n := 0
	for _, op := range t.ops {
		c, okC := t.consumed[op.id]
		r, okR := t.responded[op.id]
		if !okC || !okR {
			continue
		}
		wire += float64(c - op.startNS)
		serve += float64(r - c)
		wait += float64(op.endNS - r)
		whole += float64(op.endNS - op.startNS)
		n++
	}
	if n == 0 {
		return
	}
	k := 1e6 * float64(n)
	m["rtfs.req_wire_ms"], m["rtfs.serve_ms"], m["rtfs.resp_wait_ms"] = wire/k, serve/k, wait/k
	m["rtfs.op_ms_mean"] = whole / k
}

// span is one interval in the trace file. Parent is the id of the
// span that caused it (0 for none); spans of one client op share OpID.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    string `json:"op_id,omitempty"`
}

// writeFile writes the spans kept in memory and the per-rule table.
func (t *tracer) writeFile(path string, cfg config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]span, 0, len(t.ops)*4+len(t.steps))
	opSpan := map[string]int{}
	add := func(name string, start, end int64, parent int, op string) int {
		id := len(spans) + 1
		spans = append(spans, span{ID: id, Name: name, StartNS: start, EndNS: end, Parent: parent, OpID: op})
		return id
	}
	for _, op := range t.ops {
		id := add("op:"+op.kind, op.startNS, op.endNS, 0, op.id)
		opSpan[op.id] = id
		c, okC := t.consumed[op.id]
		r, okR := t.responded[op.id]
		if okC && okR {
			add("wire:request", op.startNS, c, id, op.id)
			add("serve", c, r, id, op.id)
			add("wait:response", r, op.endNS, id, op.id)
		}
	}
	for _, s := range t.steps {
		add("step@"+t.nodes[s.node], s.startNS, s.endNS, opSpan[s.op], s.op)
	}
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []span    `json:"spans"`
		Dropped  int64     `json:"spans_dropped"`
		Rules    []ruleRow `json:"rules"`
	}{cfg.workload, cfg.seed, spans, t.dropped, t.rules}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
