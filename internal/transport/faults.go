package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Faults is a fault-injection layer for real TCP links, mirroring the
// simulator's network model (sim.Cluster.Partition / SetDropRate /
// SlowLink) so the same chaos.Schedule replays against live sockets.
// One Faults value is shared by every transport of a live cluster:
// frames consult it at enqueue time (partition / random loss → drop,
// counted and recorded like a sim drop) and at flush time (added link
// latency → the peer's writer sleeps, which also delays everything
// FIFO-behind it, exactly like a slow link would).
//
// Loss is seeded and deterministic in sequence, though the interleaving
// of concurrent senders is not — live runs trade the simulator's
// perfect reproducibility for real-wire coverage.
type Faults struct {
	mu    sync.Mutex
	rng   *rand.Rand
	parts map[linkKey]bool
	slow  map[linkKey]time.Duration
	loss  float64
}

type linkKey struct{ a, b string }

func link(a, b string) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NewFaults creates an empty fault set. Loss draws from a seeded
// generator so a schedule replay sees the same drop sequence per rate
// window (up to goroutine interleaving).
func NewFaults(seed int64) *Faults {
	return &Faults{
		rng:   rand.New(rand.NewSource(seed)),
		parts: map[linkKey]bool{},
		slow:  map[linkKey]time.Duration{},
	}
}

// Partition cuts the link between a and b in both directions.
func (f *Faults) Partition(a, b string) {
	f.mu.Lock()
	f.parts[link(a, b)] = true
	f.mu.Unlock()
}

// Heal restores the link between a and b.
func (f *Faults) Heal(a, b string) {
	f.mu.Lock()
	delete(f.parts, link(a, b))
	f.mu.Unlock()
}

// SetLossRate sets the global probability (0..1) that any frame is
// dropped at send time, returning the previous rate — the same
// contract as sim.Cluster.SetDropRate, so chaos LossBurst windows
// restore the prior rate on expiry.
func (f *Faults) SetLossRate(p float64) float64 {
	f.mu.Lock()
	prev := f.loss
	f.loss = p
	f.mu.Unlock()
	return prev
}

// SlowLink adds extra latency to every frame between a and b (both
// directions). Zero clears the link's penalty.
func (f *Faults) SlowLink(a, b string, extra time.Duration) {
	f.mu.Lock()
	if extra <= 0 {
		delete(f.slow, link(a, b))
	} else {
		f.slow[link(a, b)] = extra
	}
	f.mu.Unlock()
}

// check decides whether a frame from→to is dropped, returning the
// reason when it is.
func (f *Faults) check(from, to string) (string, bool) {
	if f == nil {
		return "", false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.parts[link(from, to)] {
		return "partitioned", true
	}
	if f.loss > 0 && f.rng.Float64() < f.loss {
		return "loss", true
	}
	return "", false
}

// delay returns the injected latency for the from→to link.
func (f *Faults) delay(from, to string) time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slow[link(from, to)]
}
