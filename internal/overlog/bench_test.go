package overlog_test

import (
	"fmt"
	"testing"

	"repro/internal/evalbench"
)

// Evaluator microbenchmarks. The workloads live in internal/evalbench
// so the benchmark's eval_batch workload (bench/eval.go) runs the same
// bodies; these wrappers make them visible to `go test -bench`. They
// isolate storage and join-probe cost so storage-layer regressions
// show up as ns/op and allocs/op, not as noise inside a whole-cluster
// experiment. The companion guard test (TestProbePathAllocGuard) turns
// the allocs/op numbers into a hard budget enforced by `go test`.

func BenchmarkFixpointTransitiveClosure(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { evalbench.TransitiveClosure(b, n) })
	}
}

func BenchmarkFixpointMultiWayJoin(b *testing.B) { evalbench.MultiWayJoin(b) }

func BenchmarkFixpointAggHeavy(b *testing.B) { evalbench.AggHeavy(b) }

func BenchmarkSteadyStateProbe(b *testing.B) { evalbench.SteadyStateProbe(b) }

func BenchmarkTableInsertLookup(b *testing.B) { evalbench.TableInsertLookup(b) }
