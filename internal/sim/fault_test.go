package sim

import (
	"strings"
	"testing"

	"repro/internal/overlog"
)

// TestKillClearsServiceBacklog: a killed node's service-time backlog
// must not survive into its next incarnation. Five queued requests put
// busyUntil far in the future; after a kill/revive cycle a fresh
// request must be served from an empty queue, not behind the ghost of
// the dead server's backlog.
func TestKillClearsServiceBacklog(t *testing.T) {
	c := NewCluster(WithServiceTime(func(node, table string) int64 {
		if table == "req" {
			return 50
		}
		return 0
	}))
	rt := c.MustAddNode("server")
	if err := rt.InstallSource(`
		event req(N: int);
		table handled(N: int, At: int) keys(0);
		r1 handled(N, now()) :- req(N);
	`); err != nil {
		t.Fatal(err)
	}
	// Five requests at t=0 queue the server out to t=250.
	for i := 0; i < 5; i++ {
		c.Inject("server", overlog.NewTuple("req", overlog.Int(int64(i))), 0)
	}
	c.At(60, func() error { c.Kill("server"); return nil })
	c.At(100, func() error { c.Revive("server"); return nil })
	c.At(120, func() error {
		c.Inject("server", overlog.NewTuple("req", overlog.Int(99)), 0)
		return nil
	})
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	tp, ok := rt.Table("handled").LookupKey(overlog.NewTuple("handled",
		overlog.Int(99), overlog.Int(0)))
	if !ok {
		t.Fatal("post-revive request never handled")
	}
	// Served at ~170 (120 + its own 50ms); a stale backlog would push it
	// past 250.
	if at := tp.Vals[1].AsInt(); at >= 250 {
		t.Fatalf("post-revive request served at %dms: stale busyUntil survived the kill", at)
	}
}

// TestRestartLosesSoftState: Restart discards the runtime and rebuilds
// from the NodeSpec, so tables not declared durable are empty in the
// new incarnation while durable tables carry over.
func TestRestartLosesSoftState(t *testing.T) {
	const src = `
		table soft(N: int) keys(0);
		table durable(N: int) keys(0) durable;
		event put(Kind: string, N: int);
		p1 soft(N) :- put("soft", N);
		p2 durable(N) :- put("durable", N);
	`
	c := NewCluster()
	rt := c.MustAddNode("n")
	if err := rt.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSpec("n", func(fresh *overlog.Runtime) ([]Service, error) {
		return nil, fresh.InstallSource(src)
	}); err != nil {
		t.Fatal(err)
	}
	c.Inject("n", overlog.NewTuple("put", overlog.Str("soft"), overlog.Int(1)), 0)
	c.Inject("n", overlog.NewTuple("put", overlog.Str("durable"), overlog.Int(2)), 0)
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if rt.Table("soft").Len() != 1 || rt.Table("durable").Len() != 1 {
		t.Fatalf("setup: soft=%d durable=%d, want 1/1",
			rt.Table("soft").Len(), rt.Table("durable").Len())
	}

	if err := c.Restart("n"); err != nil {
		t.Fatal(err)
	}
	rt2 := c.Node("n")
	if rt2 == rt {
		t.Fatal("Restart reused the old runtime")
	}
	if c.Killed("n") {
		t.Fatal("node still marked killed after Restart")
	}
	if n := rt2.Table("soft").Len(); n != 0 {
		t.Fatalf("soft state survived crash-restart: %d rows", n)
	}
	if n := rt2.Table("durable").Len(); n != 1 {
		t.Fatalf("durable state lost in crash-restart: %d rows, want 1", n)
	}

	// Revive, by contrast, resumes the same runtime with state intact.
	c2 := NewCluster()
	rt3 := c2.MustAddNode("m")
	if err := rt3.InstallSource(src); err != nil {
		t.Fatal(err)
	}
	c2.Inject("m", overlog.NewTuple("put", overlog.Str("soft"), overlog.Int(7)), 0)
	if err := c2.Run(10); err != nil {
		t.Fatal(err)
	}
	c2.Kill("m")
	c2.Revive("m")
	if c2.Node("m") != rt3 || rt3.Table("soft").Len() != 1 {
		t.Fatal("Revive must resume the same runtime with soft state intact")
	}

	// A node without a registered spec cannot crash-restart.
	if err := c2.Restart("m"); err == nil {
		t.Fatal("Restart without a NodeSpec should error")
	}
}

// TestRestartWithoutDurableProgramFails: a spec that leaves out a
// program whose durable table the crashed runtime holds cannot restore
// it, and Restart says which table instead of booting without it.
func TestRestartWithoutDurableProgramFails(t *testing.T) {
	c := NewCluster()
	rt := c.MustAddNode("n")
	if err := rt.InstallSource(`
		table soft(N: int) keys(0);
		table ledger(N: int) keys(0) durable;
	`); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSpec("n", func(fresh *overlog.Runtime) ([]Service, error) {
		return nil, fresh.InstallSource(`table soft(N: int) keys(0);`)
	}); err != nil {
		t.Fatal(err)
	}
	c.Kill("n")
	err := c.Restart("n")
	if err == nil || !strings.Contains(err.Error(), `"ledger"`) {
		t.Fatalf("Restart without the ledger's program: %v, want an error naming ledger", err)
	}
}

// TestTimersFireDuringRun: At-scheduled callbacks drive virtual time on
// their own (no messages needed), fire in time order, and observe the
// clock at their scheduled instant.
func TestTimersFireDuringRun(t *testing.T) {
	c := NewCluster()
	c.MustAddNode("n")
	var fired []int64
	for _, at := range []int64{50, 10, 30} {
		at := at
		c.At(at, func() error {
			if c.Now() != at {
				t.Errorf("timer for %d fired at %d", at, c.Now())
			}
			fired = append(fired, at)
			return nil
		})
	}
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 30 || fired[2] != 50 {
		t.Fatalf("timers fired out of order: %v", fired)
	}
}
