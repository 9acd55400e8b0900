package trace

import (
	"testing"

	"repro/internal/overlog"
)

func TestCDFPercentiles(t *testing.T) {
	c := &CDF{}
	for i := int64(1); i <= 100; i++ {
		c.Add(i)
	}
	if c.Percentile(50) != 50 || c.Percentile(90) != 90 || c.Max() != 100 {
		t.Fatalf("percentiles: %d %d %d", c.Percentile(50), c.Percentile(90), c.Max())
	}
	if c.Mean() != 50.5 {
		t.Fatalf("mean: %f", c.Mean())
	}
	if c.N() != 100 {
		t.Fatalf("n: %d", c.N())
	}
}

func TestCDFMin(t *testing.T) {
	// Regression: Min used to abuse Percentile(0.0001), which relied on
	// negative-index clamping; it must return the smallest sample.
	one := &CDF{}
	one.Add(42)
	if got := one.Min(); got != 42 {
		t.Fatalf("n=1 Min: got %d, want 42", got)
	}
	empty := &CDF{}
	if got := empty.Min(); got != 0 {
		t.Fatalf("n=0 Min: got %d, want 0", got)
	}
	many := &CDF{}
	for _, v := range []int64{9, 3, 7, 3, 100} {
		many.Add(v)
	}
	if got := many.Min(); got != 3 {
		t.Fatalf("Min: got %d, want 3", got)
	}
	// Min must sort lazily like the other accessors.
	many.Add(1)
	if got := many.Min(); got != 1 {
		t.Fatalf("Min after Add: got %d, want 1", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := &CDF{}
	if c.Percentile(50) != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF should be all zeros")
	}
	if c.Summary() != "n=0" {
		t.Fatalf("summary: %q", c.Summary())
	}
}

func TestCollector(t *testing.T) {
	rt := overlog.NewRuntime("n1")
	if err := rt.InstallSource(`
		table kv(K: string, V: int) keys(0);
		event bump(K: string);
		r1 kv(K, 1) :- bump(K);
	`); err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	if err := col.Attach(rt, "kv", "bump"); err != nil {
		t.Fatal(err)
	}
	rt.Step(1, []overlog.Tuple{overlog.NewTuple("bump", overlog.Str("x"))})
	if col.Total() != 2 { // bump("x") and kv("x", 1)
		t.Fatalf("total: %d", col.Total())
	}
}

func TestCollectorDeletesTracked(t *testing.T) {
	rt := overlog.NewRuntime("n1")
	if err := rt.InstallSource(`
		table kv(K: string, V: int) keys(0);
		event del(K: string);
		d1 delete kv(K, V) :- del(K), kv(K, V);
	`); err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	if err := col.Attach(rt, "kv"); err != nil {
		t.Fatal(err)
	}
	rt.Step(1, []overlog.Tuple{overlog.NewTuple("kv", overlog.Str("x"), overlog.Int(1))})
	rt.Step(2, []overlog.Tuple{overlog.NewTuple("del", overlog.Str("x"))})
	if col.Total() != 2 { // one insert + one delete
		t.Fatalf("total: %d", col.Total())
	}
	if rt.Table("kv").Len() != 0 {
		t.Fatal("kv(x) was not deleted")
	}
}
