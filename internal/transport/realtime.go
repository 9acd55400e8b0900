// Package transport runs Overlog runtimes in real time over real
// networks. The sim package drives runtimes on a virtual clock for
// tests and benchmarks; this package is the deployment path used by
// the boom command: each node is a goroutine-driven loop around its
// runtime, and envelopes travel between processes as gob-encoded
// tuples over TCP.
package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// Sender delivers an envelope toward its destination node.
type Sender func(overlog.Envelope) error

// Node drives one runtime on a Clock: the wall clock unless its TCP
// transport joins a virtual one (TCP.SetClock).
type Node struct {
	rt     *overlog.Runtime
	send   Sender
	inbox  chan overlog.Tuple
	wake   chan struct{}
	stop   chan struct{}
	halt   sync.Once
	done   chan struct{}
	mu     sync.Mutex
	clock  atomic.Pointer[nodeClock]
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
		OnError: func(err error) {
			panic(err)
		},
		OnSendError: func(error) {},
	}
	n.setClock(nil)
	// A program installed while Run sleeps (membership started on a
	// running server) can add a periodic due before the loop's timer.
	rt.SetWakeHook(n.poke)
	return n
}

// poke makes the step loop re-arm its timer, and counts as work on the
// node's clock until it has.
func (n *Node) poke() {
	clk := n.clk()
	clk.track(1)
	select {
	case n.wake <- struct{}{}:
	default:
		clk.track(-1)
	}
}

// nodeClock is a node's clock and the origin its milliseconds count from.
type nodeClock struct {
	c     *Clock
	start time.Time
}

func (n *Node) clk() *Clock { return n.clock.Load().c }

// setClock moves the node onto c. On a virtual clock the loop counts as
// work from here until its timer is armed on c, whether it runs yet or
// not, so that time cannot pass it by.
func (n *Node) setClock(c *Clock) {
	n.clock.Store(&nodeClock{c, c.origin()})
	if c != nil {
		n.poke()
	}
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
// and local producers). A tuple queued for a stopped node is dropped.
func (n *Node) Deliver(tp overlog.Tuple) {
	clk := n.clk()
	clk.track(1)
	select {
	case n.inbox <- tp:
		select {
		case <-n.stop:
			n.drain()
		default:
		}
	case <-n.stop:
		clk.track(-1)
	}
}

// drain drops what a stopped node's inbox and wake signal still hold.
func (n *Node) drain() {
	for {
		select {
		case <-n.inbox:
		case <-n.wake:
		default:
			return
		}
		n.clk().track(-1)
	}
}

// Now implements sim.Env on the node's clock, letting the same Service
// implementations run under both drivers.
func (n *Node) Now() int64 {
	nc := n.clock.Load()
	return nc.c.Now().Sub(nc.start).Milliseconds()
}

// AttachService registers data-plane glue (the same sim.Service values
// the simulator uses). Must be called before Run. Injections are
// scheduled on the node's clock: local ones re-enter this node's
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
				n.clk().AfterFunc(time.Duration(inj.DelayMS)*time.Millisecond, deliver)
			}
		}
	}
}

// nowMS returns the node's millisecond clock: time since its origin,
// never moving backwards. Steps inside one millisecond share a
// clock value (Runtime.Step asks only for a nondecreasing clock). Giving
// each step a millisecond of its own let a node that steps more than a
// thousand times a second run ahead of the wall, and a clock that is
// ahead advances one millisecond per step until the wall catches up: a
// Paxos leader 500 ms ahead and stepping a hundred times a second took
// half a second per 50 ms heartbeat period, and its followers elected.
func (n *Node) nowMS() int64 {
	ms := n.Now()
	if ms < n.lastMS {
		ms = n.lastMS
	}
	return ms
}

// Run executes the step loop until Stop. It blocks; callers usually
// `go node.Run()`.
func (n *Node) Run() {
	defer close(n.done)
	// held counts the last step's work (its inbox tuples, or a wake
	// signal) and fired its timer: on a virtual clock they are released
	// only once the next wait is armed, so time cannot pass it by.
	held, fired := 0, (*Timer)(nil)
	for {
		// Determine how long we may sleep: until the next periodic or
		// deferred wake, or indefinitely pending input.
		clk := n.clk()
		n.mu.Lock()
		next := n.rt.NextWake()
		now := n.nowMS()
		n.mu.Unlock()

		var timer *Timer
		var tick <-chan time.Time
		if next >= 0 {
			timer = clk.NewTimer(time.Duration(next-now) * time.Millisecond)
			tick = timer.C
		}
		clk.track(-held)
		fired.Stop()
		held, fired = 0, timer

		var batch []overlog.Tuple
		select {
		case <-n.stop:
			timer.Stop()
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
		case <-tick:
		case <-n.wake:
			held = 1
			continue
		}
		held = len(batch)

		n.mu.Lock()
		n.svcBuf = n.svcBuf[:0]
		now = n.nowMS()
		out, err := n.rt.Step(now, n.admit(batch))
		n.lastMS = now
		events := append([]overlog.WatchEvent(nil), n.svcBuf...)
		n.svcBuf = n.svcBuf[:0]
		n.mu.Unlock()
		if err != nil {
			n.OnError(err)
			clk.track(-held)
			timer.Stop()
			n.halt.Do(func() { close(n.stop) })
			n.drain()
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
	n.halt.Do(func() { close(n.stop) })
	<-n.done
	n.drain()
}
