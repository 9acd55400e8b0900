// Package transport runs Overlog runtimes in real time over real
// networks. The sim package drives runtimes on a virtual clock for
// tests and benchmarks; this package is the deployment path used by
// the boom command: each node is a goroutine-driven loop around its
// runtime, and envelopes travel between processes as gob-encoded
// tuples over TCP.
package transport

import (
	"sync"
	"time"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// Sender delivers an envelope toward its destination node.
type Sender func(overlog.Envelope) error

// Node drives one runtime on the wall clock.
type Node struct {
	rt     *overlog.Runtime
	send   Sender
	inbox  chan overlog.Tuple
	wake   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	start  time.Time
	lastMS int64

	// OnError receives fatal step failures (default: panic, because a
	// broken rule set is a programming error).
	OnError func(error)
	// OnSendError receives per-envelope transport failures (default:
	// drop silently — unreachable peers are normal during failures).
	OnSendError func(error)

	// rejected accounts an inbound tuple the runtime cannot hold; the
	// TCP transport sets it (n.mu guards it).
	rejected func(overlog.Tuple, error)

	services []sim.Service
	svcBuf   []overlog.WatchEvent
}

// NewNode wraps a runtime for real-time execution. The caller installs
// programs on rt before calling Run, or afterwards through Runtime.
func NewNode(rt *overlog.Runtime, send Sender) *Node {
	n := &Node{
		rt:    rt,
		send:  send,
		inbox: make(chan overlog.Tuple, 1024),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		start: time.Now(),
		OnError: func(err error) {
			panic(err)
		},
		OnSendError: func(error) {},
	}
	// A program installed while Run sleeps (membership started on a
	// running server) can add a periodic due before the loop's timer.
	rt.SetWakeHook(func() {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	})
	return n
}

// SetEpoch rebases the node's millisecond clock on an external start
// time (call before Run). The live chaos harness gives every node —
// including restarted incarnations — the cluster's epoch, so now()
// advances one shared timeline across crashes, the way the simulator's
// global clock does; monitor grace windows then span restarts.
func (n *Node) SetEpoch(start time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.start = start
}

// admit drops the inbound tuples the runtime cannot hold — a table it
// never declared, a wrong arity or column type — so that one foreign
// frame costs itself, not the step that would fail on it and with it
// the node. n.mu must be held: a live InstallSource changes the
// declarations.
func (n *Node) admit(batch []overlog.Tuple) []overlog.Tuple {
	kept := batch[:0]
	for _, tp := range batch {
		if err := n.rt.CheckTuple(tp); err != nil {
			if n.rejected != nil {
				n.rejected(tp, err)
			}
			continue
		}
		kept = append(kept, tp)
	}
	return kept
}

// Runtime gives serialized access to the runtime for inspection; fn
// must not block on the node's own inbox.
func (n *Node) Runtime(fn func(rt *overlog.Runtime)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.rt)
}

// InboxDepth reports the number of queued inbound tuples (safe to
// call concurrently; exported as a gauge by the telemetry layer).
func (n *Node) InboxDepth() int { return len(n.inbox) }

// Deliver enqueues an inbound tuple (thread-safe; called by transports
// and local producers).
func (n *Node) Deliver(tp overlog.Tuple) {
	select {
	case n.inbox <- tp:
	case <-n.stop:
	}
}

// Now implements sim.Env on the wall clock, letting the same Service
// implementations run under both drivers.
func (n *Node) Now() int64 {
	return time.Since(n.start).Milliseconds()
}

// AttachService registers data-plane glue (the same sim.Service values
// the simulator uses). Must be called before Run. Injections are
// scheduled on wall-clock timers: local ones re-enter this node's
// inbox; remote ones go out through the node's sender.
func (n *Node) AttachService(svc sim.Service) error {
	for _, t := range svc.Tables() {
		if err := n.rt.AddWatch(t, "i"); err != nil {
			return err
		}
	}
	if len(n.services) == 0 {
		n.rt.RegisterWatcher(func(ev overlog.WatchEvent) {
			n.svcBuf = append(n.svcBuf, ev)
		})
	}
	n.services = append(n.services, svc)
	return nil
}

// runServices processes buffered watch events after a step.
func (n *Node) runServices(events []overlog.WatchEvent) {
	for _, svc := range n.services {
		for _, ev := range events {
			if !ev.Insert {
				continue
			}
			for _, inj := range svc.OnEvent(n, ev) {
				inj := inj
				deliver := func() {
					if inj.To == n.rt.LocalAddr() {
						n.Deliver(inj.Tuple)
						return
					}
					if err := n.send(overlog.Envelope{To: inj.To, Tuple: inj.Tuple}); err != nil {
						n.OnSendError(err)
					}
				}
				if inj.DelayMS <= 0 {
					deliver()
					continue
				}
				time.AfterFunc(time.Duration(inj.DelayMS)*time.Millisecond, deliver)
			}
		}
	}
}

// nowMS returns the node's millisecond clock: wall time since the
// epoch, never moving backwards. Steps inside one millisecond share a
// clock value (Runtime.Step asks only for a nondecreasing clock). Giving
// each step a millisecond of its own let a node that steps more than a
// thousand times a second run ahead of the wall, and a clock that is
// ahead advances one millisecond per step until the wall catches up: a
// Paxos leader 500 ms ahead and stepping a hundred times a second took
// half a second per 50 ms heartbeat period, and its followers elected.
func (n *Node) nowMS() int64 {
	ms := time.Since(n.start).Milliseconds()
	if ms < n.lastMS {
		ms = n.lastMS
	}
	return ms
}

// Run executes the step loop until Stop. It blocks; callers usually
// `go node.Run()`.
func (n *Node) Run() {
	defer close(n.done)
	for {
		// Determine how long we may sleep: until the next periodic or
		// deferred wake, or indefinitely pending input.
		n.mu.Lock()
		next := n.rt.NextWake()
		last := n.lastMS
		n.mu.Unlock()

		var timer <-chan time.Time
		if next >= 0 {
			delay := time.Duration(next-last) * time.Millisecond
			if delay < 0 {
				delay = 0
			}
			timer = time.After(delay)
		}

		var batch []overlog.Tuple
		select {
		case <-n.stop:
			return
		case tp := <-n.inbox:
			batch = append(batch, tp)
			// Drain whatever else is immediately available.
		drain:
			for {
				select {
				case more := <-n.inbox:
					batch = append(batch, more)
				default:
					break drain
				}
			}
		case <-timer:
		case <-n.wake:
			continue
		}

		n.mu.Lock()
		n.svcBuf = n.svcBuf[:0]
		now := n.nowMS()
		out, err := n.rt.Step(now, n.admit(batch))
		n.lastMS = now
		events := append([]overlog.WatchEvent(nil), n.svcBuf...)
		n.svcBuf = n.svcBuf[:0]
		n.mu.Unlock()
		if err != nil {
			n.OnError(err)
			return
		}
		for _, env := range out {
			if err := n.send(env); err != nil {
				n.OnSendError(err)
			}
		}
		if len(events) > 0 && len(n.services) > 0 {
			n.runServices(events)
		}
	}
}

// Stop terminates the loop and waits for it to exit.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
}
