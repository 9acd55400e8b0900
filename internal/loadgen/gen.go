package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Generator drives one open-loop operation stream over a sim.Cluster.
// Arrivals are scheduled as a chain of cluster timers — each timer
// issues operation i and arms operation i+1 — so issue instants are
// part of the deterministic event order, not a side channel. Matching
// completions arrive through Complete, typically called from a
// watch-table observer on the serving node's runtime.
type Generator struct {
	c        *sim.Cluster
	arrivals Arrivals
	rng      *rand.Rand

	ops       int64 // total operations to issue
	timeoutMS int64

	// issue submits operation i and returns the key a later Complete
	// call will use to match it (e.g. a BOOM-FS request ID). A nil
	// error with key "" means the op completed synchronously at issue
	// time (recorded with zero latency).
	issue func(i int64) (string, error)

	// tracer, when set, gives every request a root "op" span: opened
	// at issue (and marked active so the request's first hop parents
	// to it), recorded at completion with the full virtual-time
	// extent. nodeOf names the span's issuing node per operation.
	tracer *telemetry.Tracer
	nodeOf func(i int64) string

	// mu guards inflight, rec and win, so Complete, TakeWindow and Done
	// may be called from a goroutine other than the one stepping the
	// cluster (every caller in this repo is on it).
	mu       sync.Mutex
	inflight map[string]inflightOp
	rec      Recorder
	win      []int64 // completion latencies since the last TakeWindow

	issued    int64
	completed int64
	issueErrs int64
}

// inflightOp is one issued-but-unresolved operation.
type inflightOp struct {
	at   int64  // issue time (virtual ms)
	span string // pre-allocated root span ID ("" without a tracer)
	node string // issuing node for the root span
	op   int64  // operation index
}

// NewGenerator builds a generator over c. ops is the stream length,
// timeoutMS classifies slow completions (and bounds the final drain).
func NewGenerator(c *sim.Cluster, arr Arrivals, seed, ops, timeoutMS int64, issue func(i int64) (string, error)) *Generator {
	return &Generator{
		c:         c,
		arrivals:  arr,
		rng:       rand.New(rand.NewSource(seed)),
		ops:       ops,
		timeoutMS: timeoutMS,
		issue:     issue,
		inflight:  make(map[string]inflightOp),
	}
}

// SetTracer arms per-request root spans on tr; nodeOf maps an
// operation index to the node issuing it. Call before Start.
func (g *Generator) SetTracer(tr *telemetry.Tracer, nodeOf func(i int64) string) {
	g.tracer = tr
	g.nodeOf = nodeOf
}

// Start arms the first arrival at virtual time startAt.
func (g *Generator) Start(startAt int64) {
	if g.ops > 0 {
		g.arm(0, startAt)
	}
}

func (g *Generator) arm(i, at int64) {
	g.c.At(at, func() error {
		key, err := g.issue(i)
		now := g.c.Now()
		entry := inflightOp{at: now, op: i}
		if g.tracer != nil && err == nil && key != "" {
			entry.node = g.nodeOf(i)
			entry.span = g.tracer.NextID(entry.node)
			g.tracer.SetActive(entry.node, key, entry.span)
		}
		g.mu.Lock()
		g.issued++
		if err != nil {
			g.issueErrs++
		} else if key == "" {
			g.completed++
			g.rec.Observe(0, g.timeoutMS)
			g.win = append(g.win, 0)
		} else {
			g.inflight[key] = entry
		}
		g.mu.Unlock()
		if i+1 < g.ops {
			g.arm(i+1, at+g.arrivals.Next(g.rng))
		}
		return nil
	})
}

// Complete reports that the operation identified by key finished at
// virtual time at. Unknown keys (duplicate responses, ops already
// drained) are ignored. Safe for concurrent use.
func (g *Generator) Complete(key string, at int64) {
	g.mu.Lock()
	entry, ok := g.inflight[key]
	if !ok {
		g.mu.Unlock()
		return
	}
	delete(g.inflight, key)
	g.completed++
	g.rec.Observe(at-entry.at, g.timeoutMS)
	g.win = append(g.win, at-entry.at)
	g.mu.Unlock()
	if g.tracer != nil && entry.span != "" {
		g.tracer.Record(telemetry.Span{
			TraceID: key, SpanID: entry.span, Node: entry.node,
			Kind: "op", Op: fmt.Sprintf("op%d", entry.op),
			StartMS: entry.at, EndMS: at,
		})
	}
}

// TakeWindow returns the completion latencies observed since the
// previous call and starts a fresh window — the raw material of the
// periodic sys::metric p99 sweep.
func (g *Generator) TakeWindow() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := g.win
	g.win = nil
	return w
}

// Done reports whether every operation has been issued and resolved.
func (g *Generator) Done() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.issued == g.ops && len(g.inflight) == 0
}

// Result is the harvested outcome of one generator run.
type Result struct {
	Issued      int64          `json:"issued"`
	Completed   int64          `json:"completed"`
	IssueErrors int64          `json:"issue_errors,omitempty"`
	OfferedRate float64        `json:"offered_rate_per_sec"`
	VirtualMS   int64          `json:"virtual_ms"`
	WallSeconds float64        `json:"wall_seconds"`
	Throughput  float64        `json:"completed_per_virtual_sec"`
	Latency     LatencySummary `json:"latency"`
}

func (r Result) String() string {
	return fmt.Sprintf("issued=%d completed=%d rate=%.0f/s virtual=%dms wall=%.2fs tput=%.1f/s %s",
		r.Issued, r.Completed, r.OfferedRate, r.VirtualMS, r.WallSeconds, r.Throughput, r.Latency)
}

// Run starts the stream at startAt, steps the cluster until every
// operation resolves or horizonMS passes, then drains: anything still
// in flight is counted as unfinished (distinct from per-op timeouts).
func (g *Generator) Run(startAt, horizonMS int64) (Result, error) {
	wall := time.Now() //boomvet:allow(walltime) reporting only: WallSeconds measures the harness, not the workload
	g.Start(startAt)
	if _, err := g.c.RunUntil(g.Done, horizonMS); err != nil {
		return Result{}, err
	}
	// Give stragglers one timeout window past the last issue before
	// declaring them unfinished.
	if !g.Done() && g.timeoutMS > 0 {
		if _, err := g.c.RunUntil(g.Done, g.c.Now()+g.timeoutMS); err != nil {
			return Result{}, err
		}
	}
	g.mu.Lock()
	for range g.inflight {
		g.rec.Unfinished()
	}
	g.inflight = make(map[string]inflightOp)
	res := Result{
		Issued:      g.issued,
		Completed:   g.completed,
		IssueErrors: g.issueErrs,
		OfferedRate: g.arrivals.Rate(),
		VirtualMS:   g.c.Now(),
		WallSeconds: time.Since(wall).Seconds(), //boomvet:allow(walltime) reporting only: never feeds the virtual clock
		Latency:     g.rec.Summary(),
	}
	g.mu.Unlock()
	if res.VirtualMS > 0 {
		res.Throughput = float64(res.Completed) / (float64(res.VirtualMS) / 1000)
	}
	return res, nil
}
