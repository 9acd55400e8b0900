package transport

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"
)

// Clock is the time source of node loops, TCP transports and rtfs
// clients. A nil *Clock is the wall clock: each method makes the time
// call it stands for. A virtual clock stands still while its cluster
// works and jumps to the earliest wait once nothing does. Work is
// counted: a token per inbox tuple, frame queued or on a connection,
// fired node timer not yet stopped, and goroutine outside a clock wait
// (its creator, an At callback). In an instant, At callbacks fire first
// and one at a time, then the node timers due, then sleepers: the order
// sim.Cluster.Step gives fault timers, node steps and the harness.
type Clock struct {
	mu    sync.Mutex
	now   time.Duration // since the Unix epoch
	work  int
	seq   int64
	waits []*Timer        // pending, in firing order
	wire  map[string]int  // frames on a connection ("dialer's local address>dialed address")
	dead  map[string]bool // connections an end has closed
}

// Wait priorities within one instant.
const (
	prioAt = iota
	prioNode
	prioSleeper
)

// Timer is one pending wait on a Clock.
type Timer struct {
	C    <-chan time.Time
	ch   chan time.Time
	wall *time.Timer
	c    *Clock
	fn   func()
	at   time.Duration
	prio int
	seq  int64
	hold bool // fired node timer: Stop releases its token
}

// NewVirtualClock returns a virtual clock at the Unix epoch (UnixMilli
// counts from its start), held by its creator until that one Sleeps.
func NewVirtualClock() *Clock {
	return &Clock{work: 1, wire: map[string]int{}, dead: map[string]bool{}}
}

// Now returns the clock's time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, int64(c.now))
}

// origin is where a node's milliseconds count from: its start on the
// wall clock, the epoch on a virtual one, which restarts share.
func (c *Clock) origin() time.Time {
	if c == nil {
		return time.Now()
	}
	return time.Unix(0, 0)
}

// NewTimer arms a node timer; once fired it counts as work until Stop.
func (c *Clock) NewTimer(d time.Duration) *Timer {
	if c == nil {
		w := time.NewTimer(d)
		return &Timer{C: w.C, wall: w}
	}
	return c.arm(d, prioNode, nil)
}

// AfterFunc runs fn in its own goroutine after d, as a node timer.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if c == nil {
		return &Timer{wall: time.AfterFunc(d, fn)}
	}
	return c.arm(d, prioNode, fn)
}

// At runs fn at millisecond ms of a virtual clock, after the At
// callbacks registered before it.
func (c *Clock) At(ms int64, fn func()) {
	c.arm(time.Unix(0, 0).Add(time.Duration(ms)*time.Millisecond).Sub(c.Now()), prioAt, fn)
}

// Sleep parks the caller for d. On a virtual clock the caller must be
// counted work; it stops counting while parked.
func (c *Clock) Sleep(d time.Duration) {
	if c == nil {
		time.Sleep(d)
		return
	}
	t := c.arm(d, prioSleeper, nil)
	c.track(-1)
	<-t.C
}

func (c *Clock) arm(d time.Duration, prio int, fn func()) *Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	ch := make(chan time.Time, 1)
	t := &Timer{C: ch, ch: ch, c: c, fn: fn, at: c.now + max(d, 0), prio: prio, seq: c.seq}
	i, _ := slices.BinarySearchFunc(c.waits, t, func(a, b *Timer) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.prio, b.prio), cmp.Compare(a.seq, b.seq))
	})
	c.waits = slices.Insert(c.waits, i, t)
	return t
}

// Stop cancels a pending timer, or releases a fired node timer's token.
func (t *Timer) Stop() {
	switch {
	case t == nil:
	case t.wall != nil:
		t.wall.Stop()
	default:
		c := t.c
		c.mu.Lock()
		defer c.mu.Unlock()
		if i := slices.Index(c.waits, t); i >= 0 {
			c.waits = slices.Delete(c.waits, i, i+1)
		} else if t.hold {
			t.hold = false
			c.add(-1)
		}
	}
}

// track adds delta tokens of work; negative is work done.
func (c *Clock) track(delta int) {
	if c == nil || delta == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(delta)
}

// add moves the count (c.mu held) and at zero fires the earliest wait:
// one At callback or sleeper, or every node timer of its instant.
func (c *Clock) add(delta int) {
	if c.work += delta; c.work < 0 {
		panic("transport: virtual clock released more work than it counted")
	}
	for c.work == 0 && len(c.waits) > 0 {
		first := c.waits[0]
		c.now = max(c.now, first.at)
		for len(c.waits) > 0 && (c.waits[0] == first || first.prio == prioNode &&
			c.waits[0].prio == prioNode && c.waits[0].at <= c.now) {
			t := c.waits[0]
			c.waits = c.waits[1:]
			c.work++
			t.hold = t.fn == nil && t.prio == prioNode
			if t.fn == nil {
				t.ch <- time.Unix(0, int64(c.now))
			} else {
				go func() { t.fn(); c.track(-1) }()
			}
		}
	}
}

// frames moves n frames' tokens onto connection conn before they are
// written (n > 0), or releases -n its reader delivered. Frames on a
// closed connection are lost: released at once.
func (c *Clock) frames(conn string, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.dead[conn]:
		c.wire[conn] += n
		c.add(min(n, 0))
	case n > 0:
		c.add(-n)
	}
}

// hangup closes the connections whose names end in suffix (one, or
// ">addr": all to a closed listener), losing their unread frames.
func (c *Clock) hangup(suffix string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead[suffix] = true
	lost := 0
	for conn, n := range c.wire {
		if strings.HasSuffix(conn, suffix) {
			c.dead[conn] = true
			lost += n
			delete(c.wire, conn)
		}
	}
	c.add(-lost)
}

// hungUp reports whether an end of connection conn has closed.
func (c *Clock) hungUp(conn string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[conn]
}
