// Package trace provides the measurement toolkit for the reproduction:
// CDFs and percentile summaries over simulated-time samples (the
// paper's figures are task-completion CDFs), plus a sink that counts
// the events on watched tables (Collector), the watch-based monitoring
// of the BOOM monitoring revision. Rule-firing counts are the runtime's own
// (Runtime.RuleProfiles, and sys::fire for rules).
package trace

import (
	"fmt"
	"sort"
)

// CDF is an empirical distribution over int64 samples (milliseconds).
type CDF struct {
	samples []int64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(v int64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensure() {
	if !c.sorted {
		sort.Slice(c.samples, func(i, j int) bool { return c.samples[i] < c.samples[j] })
		c.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100).
func (c *CDF) Percentile(p float64) int64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensure()
	idx := int(p/100*float64(len(c.samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.samples) {
		idx = len(c.samples) - 1
	}
	return c.samples[idx]
}

// Min returns the smallest sample (0 when empty).
func (c *CDF) Min() int64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensure()
	return c.samples[0]
}

// Max returns the largest sample.
func (c *CDF) Max() int64 { return c.Percentile(100) }

// Mean returns the arithmetic mean.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var sum int64
	for _, v := range c.samples {
		sum += v
	}
	return float64(sum) / float64(len(c.samples))
}

// Summary renders a one-line percentile digest.
func (c *CDF) Summary() string {
	if c.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%d p25=%d p50=%d p75=%d p90=%d p99=%d max=%d mean=%.1f",
		c.N(), c.Min(), c.Percentile(25), c.Percentile(50), c.Percentile(75),
		c.Percentile(90), c.Percentile(99), c.Max(), c.Mean())
}
