package overlog

import "testing"

// TestStepHook checks the per-step stats fed to telemetry: external
// tuple counts include periodic firings, derivation/insert deltas are
// per-step, and the stored total tracks table contents.
func TestStepHook(t *testing.T) {
	rt := NewRuntime("n1")
	if err := rt.InstallSource(`
		table kv(K: string, V: int) keys(0);
		event bump(K: string);
		event out(Addr: addr, K: string);
		r1 kv(K, 1) :- bump(K);
		r2 out(@A, K) :- bump(K), A := "other:1";
	`); err != nil {
		t.Fatal(err)
	}
	var stats []StepStats
	rt.AddStepHook(func(st StepStats) { stats = append(stats, st) })

	rt.Step(1, []Tuple{NewTuple("bump", Str("x")), NewTuple("bump", Str("y"))})
	rt.Step(2, []Tuple{NewTuple("bump", Str("x"))}) // kv("x") already stored

	if len(stats) != 2 {
		t.Fatalf("hook calls: %d", len(stats))
	}
	s1, s2 := stats[0], stats[1]
	if s1.NowMS != 1 || s2.NowMS != 2 {
		t.Fatalf("timestamps: %d %d", s1.NowMS, s2.NowMS)
	}
	if s1.External != 2 || s2.External != 1 {
		t.Fatalf("external: %d %d", s1.External, s2.External)
	}
	// Step 1 derives kv twice and out twice; step 2 re-derives kv("x")
	// but inserts nothing new into kv.
	if s1.Derived < 4 {
		t.Fatalf("step1 derived: %d", s1.Derived)
	}
	if s1.Envelopes != 2 || s2.Envelopes != 1 {
		t.Fatalf("envelopes: %d %d", s1.Envelopes, s2.Envelopes)
	}
	if s1.Stored < 2 {
		t.Fatalf("step1 stored: %d", s1.Stored)
	}
	if s2.Stored < s1.Stored { // kv keeps both rows; events drain
		t.Fatalf("stored shrank: %d -> %d", s1.Stored, s2.Stored)
	}
	if s1.DurationNS <= 0 || s2.DurationNS <= 0 {
		t.Fatalf("durations: %d %d", s1.DurationNS, s2.DurationNS)
	}
	// Deltas are per-step, not cumulative.
	if s2.Derived >= s1.Derived {
		t.Fatalf("derived not a delta: %d then %d", s1.Derived, s2.Derived)
	}
}
