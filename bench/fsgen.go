package main

import (
	"fmt"
	"math/rand"

	"repro/internal/loadgen"
)

// settle is how many of a client's newest paths the generator leaves
// alone. On the open-loop rows a burst can put a create and a later op
// on the same path into one master step, where the create's deferred
// catalog writes are not yet visible; a path eight ops old has always
// been answered. The workloads are built so that no operation fails.
const settle = 8

type fsOp struct {
	kind string // create, exists, mv, rm
	path string
	arg  string // mv's destination
}

// fsGen produces one client's stream of metadata ops from a seed, in
// the proportions of loadgen.DefaultFSMix, and remembers which paths
// must exist afterwards and which must not.
type fsGen struct {
	rng     *rand.Rand
	mix     loadgen.FSMix
	prefix  string
	created int
	live    []string // oldest first; the last `settle` are not yet picked
	removed []string
	// sameShard, when set, restricts mv to destinations on the source's
	// partition (a partitioned master validates and re-keys locally).
	sameShard func(a, b string) bool
}

func newFSGen(seed int64, client int) *fsGen {
	return &fsGen{rng: rand.New(rand.NewSource(seed*1000 + int64(client) + 1)),
		mix: loadgen.DefaultFSMix(), prefix: fmt.Sprintf("/load/c%d-f", client)}
}

func (g *fsGen) next() fsOp {
	x := g.rng.Float64()
	settled := len(g.live) - settle
	if x < g.mix.Create || settled <= 0 {
		g.created++
		p := fmt.Sprintf("%s%06d", g.prefix, g.created)
		g.live = append(g.live, p)
		return fsOp{kind: "create", path: p}
	}
	idx := g.rng.Intn(settled)
	p := g.live[idx]
	switch {
	case x < g.mix.Create+g.mix.Read:
		return fsOp{kind: "exists", path: p}
	case x < g.mix.Create+g.mix.Read+g.mix.Mv:
		for k := 0; k < 256; k++ {
			np := fmt.Sprintf("%s.m%d", p, k)
			if g.sameShard == nil || g.sameShard(p, np) {
				g.live = append(append(g.live[:idx], g.live[idx+1:]...), np)
				g.removed = append(g.removed, p)
				return fsOp{kind: "mv", path: p, arg: np}
			}
		}
		return fsOp{kind: "exists", path: p}
	default:
		g.live = append(g.live[:idx], g.live[idx+1:]...)
		g.removed = append(g.removed, p)
		return fsOp{kind: "rm", path: p}
	}
}

// sample draws up to n surviving and n removed paths for the
// correctness check.
func (g *fsGen) sample(n int) (surviving, removed []string) {
	pick := func(from []string) []string {
		if len(from) <= n {
			return append([]string(nil), from...)
		}
		out := make([]string, n)
		for i, j := range g.rng.Perm(len(from))[:n] {
			out[i] = from[j]
		}
		return out
	}
	return pick(g.live), pick(g.removed)
}

// checkPaths is the FS rows' correctness check: up to n sampled
// surviving paths must exist and up to n removed or renamed-away ones
// must not, asked through exists like any other op.
func (g *fsGen) checkPaths(n int, exists func(string) (bool, error)) error {
	surviving, removed := g.sample(n)
	for i, p := range append(surviving, removed...) {
		want := i < len(surviving)
		got, err := exists(p)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("exists %s = %v, want %v", p, got, want)
		}
	}
	return nil
}
