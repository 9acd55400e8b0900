package overlog

// Per-rule fixpoint profiler.
//
// Every compiled rule owns a ruleStats block shared with its delta
// variants, so firing counts cost one pointer-chased increment instead
// of a map lookup on the hot path. Wall-time attribution and
// per-stratum iteration histograms are gated behind SetProfiling —
// with profiling off the evaluator pays one branch per rule
// evaluation and allocates nothing extra.

// ruleStats accumulates per-rule counters. A rule and all its
// reordered delta variants share one block, so counts aggregate no
// matter which variant ran.
type ruleStats struct {
	// evals counts evaluations entered (one per evalRuleFull or
	// evalRuleDelta call, whether or not anything derived): with fires,
	// it says what a rule cost for nothing.
	evals     int64
	fires     int64 // head derivations (pre-dedup)
	retracted int64 // stored tuples this rule's deletions/maintenance removed
	wallNS    int64 // wall time inside evalRuleFull/evalRuleDelta (profiling only)
	// groupEvals counts single groups an aggregate rule re-collected
	// through its seeded form (see groupPlan); an evaluation of all
	// groups adds nothing.
	groupEvals int64
	// altEvals counts evaluations that continued in a delta variant's
	// alternative join order (see planAlternative) at least once;
	// altSeen is the evals count of the last one.
	altEvals int64
	altSeen  int64
}

// RuleProfile is one rule's accumulated profile counters.
type RuleProfile struct {
	Rule      string `json:"rule"`
	Program   string `json:"program"`
	Stratum   int    `json:"stratum"`
	Evals     int64  `json:"evals"`
	AltEvals  int64  `json:"alt_evals"`
	Fires     int64  `json:"fires"`
	Retracted int64  `json:"retracted,omitempty"`
	WallNS    int64  `json:"wall_ns"`
}

// StratumProfile summarizes the semi-naive loop behaviour of one
// stratum across all profiled steps: how many iterations the fixpoint
// needed, as total/max and a small histogram.
type StratumProfile struct {
	Stratum int      `json:"stratum"`
	Steps   int64    `json:"steps"` // steps in which this stratum ran rules
	Iters   int64    `json:"iters"` // total fixpoint iterations
	Max     int64    `json:"max_iters"`
	Hist    [6]int64 `json:"hist"` // iteration buckets: ≤1, 2, 3–4, 5–8, 9–16, 17+
}

// IterBuckets labels StratumProfile.Hist, index-aligned.
var IterBuckets = [6]string{"<=1", "2", "3-4", "5-8", "9-16", "17+"}

func iterBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	default:
		return 5
	}
}

// SetProfiling toggles wall-time attribution and stratum-iteration
// recording. Evaluation, firing and retraction counts are always
// maintained (they are integer increments); only the time.Now calls
// and histogram bookkeeping are gated.
func (r *Runtime) SetProfiling(on bool) { r.profOn = on }

// Profiling reports whether wall-time profiling is enabled.
func (r *Runtime) Profiling() bool { return r.profOn }

// RuleProfiles returns a snapshot of per-rule profile counters in
// install order.
func (r *Runtime) RuleProfiles() []RuleProfile {
	out := make([]RuleProfile, len(r.cat.rules))
	for i, cr := range r.cat.rules {
		out[i] = RuleProfile{
			Rule:      cr.name,
			Program:   cr.program,
			Stratum:   cr.stratum,
			Evals:     cr.stats.evals,
			AltEvals:  cr.stats.altEvals,
			Fires:     cr.stats.fires,
			Retracted: cr.stats.retracted,
			WallNS:    cr.stats.wallNS,
		}
	}
	return out
}

// StratumProfiles returns a snapshot of per-stratum iteration
// statistics (empty until profiling has been enabled during steps).
func (r *Runtime) StratumProfiles() []StratumProfile {
	return append([]StratumProfile(nil), r.stratProf...)
}

// recordStratumIters logs one stratum's fixpoint iteration count for
// the current step. Only called when profiling is on.
func (r *Runtime) recordStratumIters(s, iters int) {
	for len(r.stratProf) <= s {
		r.stratProf = append(r.stratProf, StratumProfile{Stratum: len(r.stratProf)})
	}
	sp := &r.stratProf[s]
	sp.Steps++
	sp.Iters += int64(iters)
	if int64(iters) > sp.Max {
		sp.Max = int64(iters)
	}
	sp.Hist[iterBucket(iters)]++
	r.stratIter = append(r.stratIter, int32(iters))
}
