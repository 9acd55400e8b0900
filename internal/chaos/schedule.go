// Package chaos is a deterministic fault-injection harness over
// sim.Cluster: fault schedules are data (a list of timed actions),
// invariants are Overlog rules installed next to the program under
// test, and violations are tuples in a sys::invariant relation — the
// runtime-checking counterpart of boomlint's static sys::lint. A
// seed-sweep runner replays a workload+schedule across many seeds and
// greedily shrinks any violating schedule to a minimal reproduction.
package chaos

import (
	"fmt"
	"slices"
	"strings"
)

// ActionKind names a fault primitive.
type ActionKind string

const (
	// Kill stops a node permanently (until an explicit Revive); its
	// runtime state is retained, modeling a long pause.
	Kill ActionKind = "kill"
	// Revive resumes a killed node with its state intact.
	Revive ActionKind = "revive"
	// CrashRestart kills Node at AtMS and restarts it DurMS later via
	// its registered sim.NodeSpec: soft state is lost, durable tables
	// come back from the crash-time checkpoint.
	CrashRestart ActionKind = "crash-restart"
	// Partition cuts the A<->B link at AtMS and heals it DurMS later
	// (DurMS <= 0 leaves it cut until an explicit Heal).
	Partition ActionKind = "partition"
	// Heal restores the A<->B link.
	Heal ActionKind = "heal"
	// LossBurst raises the cluster-wide drop rate to Rate for DurMS,
	// then restores the previous rate.
	LossBurst ActionKind = "loss-burst"
	// SlowLink adds LatMS of one-way delay to the A<->B link for DurMS
	// (DurMS <= 0 keeps it slow forever).
	SlowLink ActionKind = "slow-link"
)

// Action is one timed fault. Which fields matter depends on Kind:
// Node for kill/revive/crash-restart; A and B for partition/heal/
// slow-link; Rate for loss-burst; LatMS for slow-link; DurMS is the
// fault's duration where the kind defines one. The JSON form is the
// interchange format: a violating schedule saved from one sweep replays
// byte-identically in another run, or against the other transport.
type Action struct {
	AtMS  int64      `json:"at_ms"`
	Kind  ActionKind `json:"kind"`
	Node  string     `json:"node,omitempty"`
	A     string     `json:"a,omitempty"`
	B     string     `json:"b,omitempty"`
	DurMS int64      `json:"dur_ms,omitempty"`
	Rate  float64    `json:"rate,omitempty"`
	LatMS int64      `json:"lat_ms,omitempty"`
}

func (a Action) String() string {
	switch a.Kind {
	case Kill, Revive:
		return fmt.Sprintf("@%dms %s %s", a.AtMS, a.Kind, a.Node)
	case CrashRestart:
		return fmt.Sprintf("@%dms %s %s (down %dms)", a.AtMS, a.Kind, a.Node, a.DurMS)
	case Partition:
		return fmt.Sprintf("@%dms %s %s|%s (heal after %dms)", a.AtMS, a.Kind, a.A, a.B, a.DurMS)
	case Heal:
		return fmt.Sprintf("@%dms %s %s|%s", a.AtMS, a.Kind, a.A, a.B)
	case LossBurst:
		return fmt.Sprintf("@%dms %s %.0f%% for %dms", a.AtMS, a.Kind, a.Rate*100, a.DurMS)
	case SlowLink:
		return fmt.Sprintf("@%dms %s %s|%s +%dms for %dms", a.AtMS, a.Kind, a.A, a.B, a.LatMS, a.DurMS)
	}
	return fmt.Sprintf("@%dms %s", a.AtMS, a.Kind)
}

// Schedule is an ordered fault plan. Schedules are plain data: they
// serialize, diff, and shrink — the point of modeling faults as tuples
// rather than imperative test choreography.
type Schedule []Action

func (s Schedule) String() string {
	if len(s) == 0 {
		return "(no faults)"
	}
	lines := make([]string, len(s))
	for i, a := range s {
		lines[i] = a.String()
	}
	return strings.Join(lines, "\n")
}

// Faults is the fault surface a schedule drives, on the simulator
// (sim.Cluster) or the live TCP cluster (chaos/live).
type Faults interface {
	Nodes() []string
	Kill(node string)
	Revive(node string)
	Restart(node string) error
	Partition(a, b string)
	Heal(a, b string)
	SetDropRate(rate float64) float64
	SlowLink(a, b string, latMS int64)
	At(ms int64, fn func() error)
}

// Apply registers every action as a cluster timer; the driver fires
// them as its clock advances, even while a synchronous workload op
// is driving the simulation from inside the same event loop. An action
// naming a node the cluster lacks fails the schedule, as an unknown
// kind fails its load. While loss bursts overlap, the latest to start
// sets the rate; the rate from before the first comes back when the
// last ends.
func (s Schedule) Apply(c Faults) error {
	nodes := c.Nodes()
	for _, a := range s {
		for _, n := range []string{a.Node, a.A, a.B} {
			if n != "" && !slices.Contains(nodes, n) {
				return fmt.Errorf("chaos: %v: no node %q", a, n)
			}
		}
	}
	bursts, base := 0, 0.0 // loss bursts running, and the rate before them
	for _, a := range s {
		switch a.Kind {
		case Kill:
			c.At(a.AtMS, func() error { c.Kill(a.Node); return nil })
		case Revive:
			c.At(a.AtMS, func() error { c.Revive(a.Node); return nil })
		case CrashRestart:
			c.At(a.AtMS, func() error { c.Kill(a.Node); return nil })
			c.At(a.AtMS+a.DurMS, func() error { return c.Restart(a.Node) })
		case Partition:
			c.At(a.AtMS, func() error { c.Partition(a.A, a.B); return nil })
			if a.DurMS > 0 {
				c.At(a.AtMS+a.DurMS, func() error { c.Heal(a.A, a.B); return nil })
			}
		case Heal:
			c.At(a.AtMS, func() error { c.Heal(a.A, a.B); return nil })
		case LossBurst:
			c.At(a.AtMS, func() error {
				if prev := c.SetDropRate(a.Rate); bursts == 0 {
					base = prev
				}
				bursts++
				c.At(a.AtMS+a.DurMS, func() error {
					if bursts--; bursts == 0 {
						c.SetDropRate(base)
					}
					return nil
				})
				return nil
			})
		case SlowLink:
			c.At(a.AtMS, func() error { c.SlowLink(a.A, a.B, a.LatMS); return nil })
			if a.DurMS > 0 {
				c.At(a.AtMS+a.DurMS, func() error { c.SlowLink(a.A, a.B, 0); return nil })
			}
		}
	}
	return nil
}

// End returns the time by which every action (including its duration)
// has completed.
func (s Schedule) End() int64 {
	var end int64
	for _, a := range s {
		t := a.AtMS + a.DurMS
		if t > end {
			end = t
		}
	}
	return end
}
