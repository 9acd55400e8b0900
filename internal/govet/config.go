package govet

// The pass scopes. The deterministic packages are the ones whose
// execution must replay bit-identically from a seed: the evaluator,
// the simulator, the open-loop load generator, and the chaos harness
// (fault schedules are replayable data). The order-sensitive set adds
// the packages that render maps into ordered output (Prometheus
// exposition, derivation DAGs) without needing full determinism.

// DeterministicPackages must replay bit-identically: wall-clock reads,
// unseeded randomness, map-order leaks, and goroutines are all bugs
// here.
//
// Two deliberate exclusions, decided when the transport grew the live
// chaos harness:
//
//   - repro/internal/transport is the real-time driver: goroutines,
//     sockets, and a Clock that is the wall (nil) or a virtual clock a
//     harness owns; clock.go is the one file that calls time.Now,
//     Sleep and AfterFunc. Scoping it would demand an allow on nearly
//     every goroutine, and a blanket-waived package teaches readers to
//     ignore pragmas. Its determinism-relevant twin is internal/sim,
//     which stays scoped, as does internal/membership's probe timing.
//   - repro/internal/chaos/live replays chaos schedules on that
//     transport, on its virtual clock; the order of work within one
//     virtual instant varies, so its runs are non-replayable by nature.
//     The schedules and scenario bodies it runs are owned by the scoped
//     internal/chaos package, which is where replayable logic (schedule
//     derivation, shrinking, JSON interchange) must stay.
//
// No goroutine in internal/overlog or internal/sim: rule evaluation
// and sim stepping are serial (DESIGN.md §16), neither package carries
// a gospawn waiver, and TestEvaluatorAndSimSpawnNothing fails if one
// appears.
//
// Span-timestamp policy (walltime pass): telemetry.Tracer records
// whatever clock the caller passes and never reads one itself, so the
// scoped packages stay waiver-free by construction — the sim stamps
// spans with its virtual clock in the merge phase, loadgen stamps
// request spans at virtual issue/complete instants, and only the
// real-time drivers (transport, rtfs, chaos/live — all outside the
// scope, by the transport argument above) read a clock for span
// bounds: their transport.Clock. A walltime finding on a span-stamping line inside a scoped
// package means virtual time was available and not used: fix it, do
// not waive it.
var DeterministicPackages = map[string]bool{
	"repro/internal/sim":              true,
	"repro/internal/overlog":          true,
	"repro/internal/overlog/analysis": true,
	"repro/internal/loadgen":          true,
	"repro/internal/chaos":            true,
	"repro/internal/membership":       true,
}

// OrderSensitivePackages additionally emit ordered output (sorted
// views, text expositions, journals) that unordered map iteration
// would scramble.
var OrderSensitivePackages = map[string]bool{
	"repro/internal/telemetry":  true,
	"repro/internal/provenance": true,
}

func deterministicScope(pkgPath string) bool {
	return DeterministicPackages[pkgPath]
}

func orderScope(pkgPath string) bool {
	return DeterministicPackages[pkgPath] || OrderSensitivePackages[pkgPath]
}
