package loadgen

import "testing"

// TestRunFSTraceBreakdown: a traced FS run must decompose its latency
// CDF into queue/serve/network parts (recv − send, rules − recv, the
// rest of the op) that cover most requests, and the decomposition
// must be deterministic in the seed.
func TestRunFSTraceBreakdown(t *testing.T) {
	cfg := FSConfig{
		Masters: 2, Clients: 2, Mix: DefaultFSMix(),
		Seed: 7, Rate: 200, Ops: 100, MasterServiceMS: 2, Trace: true,
	}
	stats, err := RunFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bd := stats.Breakdown
	if bd == nil {
		t.Fatal("traced run returned no breakdown")
	}
	if int64(bd.Requests) < stats.Completed-5 {
		t.Fatalf("breakdown covers %d of %d completed requests", bd.Requests, stats.Completed)
	}
	if bd.TotalP99MS <= 0 || bd.NetMeanMS <= 0 {
		t.Fatalf("degenerate breakdown: %+v", bd)
	}
	// A request occupies its master for 2 ms after it arrives, which
	// the spans show as the gap from its recv to the rules that
	// consumed it: every request queues at least that long.
	if bd.QueueMeanMS < cfg.MasterServiceMS {
		t.Fatalf("service time invisible in breakdown: %+v", bd)
	}
	if bd.NetP99MS+bd.QueueP99MS+bd.ServeP99MS < bd.TotalP99MS/4 {
		t.Fatalf("components nowhere near the total: %+v", bd)
	}

	again, err := RunFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *again.Breakdown != *bd {
		t.Fatalf("same seed, different breakdown:\n a=%+v\n b=%+v", *bd, *again.Breakdown)
	}
}

// TestRunFSSLOViolation: with the master service time inflating p99
// past a deliberately tight bound, the Overlog SLO monitor must
// materialize violations; with a generous bound it must stay silent.
func TestRunFSSLOViolation(t *testing.T) {
	base := FSConfig{
		Masters: 1, Clients: 2, Mix: DefaultFSMix(),
		Seed: 7, Rate: 300, Ops: 200, MasterServiceMS: 3,
		SLOWindowMS: 500,
	}

	tight := base
	tight.SLOBoundP99MS = 1
	stats, err := RunFS(tight)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SLOViolations == 0 {
		t.Fatalf("p99 %dms over a 1ms bound produced no slo_violation rows",
			stats.Latency.P99MS)
	}

	loose := base
	loose.SLOBoundP99MS = 1_000_000
	stats, err = RunFS(loose)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SLOViolations != 0 {
		t.Fatalf("generous bound still produced %d violations", stats.SLOViolations)
	}
}
