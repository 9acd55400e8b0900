package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/telemetry"
)

// TestRenderViolationShowsScheduleAndEvictions: with shrinking off, a
// violating seed still prints its whole schedule, so a fault the ring
// has evicted (a crash early in a long run) stays readable, and the
// ring's header says how many events it evicted.
func TestRenderViolationShowsScheduleAndEvictions(t *testing.T) {
	tr := telemetry.NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(telemetry.Span{Node: "px:1", Kind: "send", Op: fmt.Sprint("m", i), StartMS: int64(30000 + i)})
	}
	res := chaos.SweepResult{
		Seed: 1,
		Schedule: chaos.Schedule{
			{AtMS: 4847, Kind: chaos.CrashRestart, Node: "px:0", DurMS: 2559},
			{AtMS: 9000, Kind: chaos.LossBurst, Rate: 0.3, DurMS: 800},
		},
		Outcome: chaos.Outcome{
			Violations: []chaos.Violation{{Inv: "single-leader", Node: "px:1", TimeMS: 30010, Detail: "two leaders"}},
			Tracer:     tr,
		},
	}
	out := render(res, 2, false)
	for _, want := range []string{
		"  seed 1: VIOLATED (2-action schedule)\n" +
			"    @4847ms crash-restart px:0 (down 2559ms)\n" +
			"    @9000ms loss-burst 30% for 800ms\n",
		"event ring (last 2 of 4 buffered events; 6 older evicted):\n",
		"px:1           send   m9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "m5") {
		t.Errorf("render shows more of the ring than its tail:\n%s", out)
	}
}
