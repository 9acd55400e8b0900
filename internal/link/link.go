// Package link is the client side of a request, written once. A Link
// is what a client needs of its cluster: send a tuple, read the clock,
// wait until a condition over the client's runtime holds. Caller is
// the one loop over it that sends a request, awaits the answer and
// retries elsewhere. The simulator's link (Sim) runs the cluster while
// it waits; the TCP link (internal/rtfs) polls its node. The FS and KV
// clients are written against Caller, so both drivers share one retry
// policy, one id rule and one leader preference.
package link

import (
	"fmt"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// Link is how a client reaches its cluster. Times are milliseconds on
// the link's clock.
type Link interface {
	// Send delivers tp to the node at to; over TCP it can fail.
	Send(to string, tp overlog.Tuple) error
	// Now reads the clock.
	Now() int64
	// Await waits until cond holds over the client's runtime or the
	// clock reaches deadline, and reports whether cond held. With a
	// deadline already past it checks cond without waiting.
	Await(cond func(rt *overlog.Runtime) bool, deadline int64) (bool, error)
}

// OpTracer is a Link that records one span per call, opened before the
// first send and named by the request's first id.
type OpTracer interface {
	StartOp(id, op, path string) (finish func(outcome string))
}

// Sim is the simulator's link: a send is an injection, and Await runs
// the cluster until cond holds over the client's runtime RT.
type Sim struct {
	C  *sim.Cluster
	RT *overlog.Runtime
}

// Send injects tp at to, now.
func (s Sim) Send(to string, tp overlog.Tuple) error {
	s.C.Inject(to, tp, 0)
	return nil
}

// Now is the cluster's virtual time.
func (s Sim) Now() int64 { return s.C.Now() }

// Await runs the cluster until cond holds or no event is due by
// deadline.
func (s Sim) Await(cond func(*overlog.Runtime) bool, deadline int64) (bool, error) {
	return s.C.RunUntil(func() bool { return cond(s.RT) }, deadline)
}

// Caller is one client's requests over a link: the id sequence
// (Addr-1, Addr-2, ...) and the target that answered last.
type Caller struct {
	Link      Link
	Addr      string
	seq       int64
	preferred int
}

// NextID draws the client's next request id.
func (c *Caller) NextID() string {
	c.seq++
	return fmt.Sprintf("%s-%d", c.Addr, c.seq)
}

// Preferred is the index of the target that answered last.
func (c *Caller) Preferred() int { return c.preferred }

// Request is one call: where it may go, how long it may take, how it
// is encoded and how its answer is recognised.
type Request struct {
	Targets []string
	// TimeoutMS bounds the call. RetryMS bounds one attempt against one
	// target; 0 gives each target the whole timeout, in one pass.
	TimeoutMS, RetryMS int64
	// OneID keeps one id across tries, for targets that replay one log
	// with per-id dedup (internal/rsm seen_op): any target's answer for
	// the id is authoritative, and a retry whose predecessor committed
	// is not applied again. Without it each try takes a fresh id,
	// because independent targets each execute what they receive, so
	// an answer is only trusted for the attempt that asked.
	OneID bool
	// Tuple encodes the request for target to under id.
	Tuple func(to, id string) overlog.Tuple
	// Done reports whether the client's runtime holds id's answer.
	Done func(rt *overlog.Runtime, id string) bool
	// Op and Path name the call's span on a link that traces.
	Op, Path string
}

// never is a condition for a plain wait.
func never(*overlog.Runtime) bool { return false }

// Call sends r to its targets in turn, starting at the one that
// answered last, until Done holds or TimeoutMS passes. It reports the
// tries made and whether an answer came. A send error (a target the
// link cannot reach) costs a 5 ms back-off and a rotation rather than
// the attempt's window; with one target and no retry budget it is
// returned at once.
func (c *Caller) Call(r Request) (tries int, answered bool, err error) {
	perTry := r.RetryMS
	if perTry <= 0 {
		perTry = r.TimeoutMS
	}
	overall := c.Link.Now() + r.TimeoutMS
	var id string
	if r.OneID {
		id = c.NextID()
	}
	var finish func(string)
	outcome := "timeout"
	defer func() {
		if finish != nil {
			finish(fmt.Sprintf("%s (%d tries)", outcome, tries))
		}
	}()
	for c.Link.Now() < overall {
		idx := (c.preferred + tries) % len(r.Targets)
		to := r.Targets[idx]
		tries++
		if !r.OneID {
			id = c.NextID()
		}
		if t, ok := c.Link.(OpTracer); ok && finish == nil {
			finish = t.StartOp(id, r.Op, r.Path)
		}
		if err := c.Link.Send(to, r.Tuple(to, id)); err != nil {
			if len(r.Targets) == 1 && r.RetryMS <= 0 {
				outcome = "send-error"
				return tries, false, err
			}
			if _, err := c.Link.Await(never, c.Link.Now()+5); err != nil {
				return tries, false, err
			}
			continue
		}
		done := func(rt *overlog.Runtime) bool { return r.Done(rt, id) }
		ok, err := c.Link.Await(done, min(c.Link.Now()+perTry, overall))
		if err != nil {
			return tries, false, err
		}
		if ok {
			if len(r.Targets) > 1 {
				c.preferred = idx
			}
			outcome = "ok"
			return tries, true, nil
		}
		if tries >= len(r.Targets) && r.RetryMS <= 0 {
			break // no retry budget; one pass is enough
		}
	}
	return tries, false, nil
}
