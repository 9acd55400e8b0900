package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/overlog"
	"repro/internal/paxos"
)

// paxosParams shapes the bare-consensus scenario.
type paxosParams struct {
	replicas int
	commands int
}

// Paxos runs a three-replica multi-Paxos group through leader
// crash-restarts (durable acceptor state survives, soft state does
// not), a partition, and a loss burst, while a stream of commands is
// submitted. The single-leader and log-agreement monitors must stay
// silent, and every command must eventually decide on every replica.
func Paxos() Scenario {
	p := paxosParams{replicas: 3, commands: 8}
	return simScenario("paxos", p.schedule, p.body)
}

func (p paxosParams) mon() MonitorConfig {
	return MonitorConfig{TickMS: 500, GraceMS: 12000}
}

func (p paxosParams) schedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	px := func(i int) string { return fmt.Sprintf("px:%d", i) }
	a := rng.Intn(p.replicas)
	b := (a + 1 + rng.Intn(p.replicas-1)) % p.replicas
	return Schedule{
		// The initial leader (rank 0) crashes mid-stream and restarts
		// from its durable acceptor tables.
		{AtMS: 3000 + int64(rng.Intn(2000)), Kind: CrashRestart,
			Node: px(0), DurMS: 2500 + int64(rng.Intn(1500))},
		{AtMS: 9000 + int64(rng.Intn(2000)), Kind: Partition,
			A: px(a), B: px(b), DurMS: 2000},
		{AtMS: 14000 + int64(rng.Intn(1000)), Kind: LossBurst,
			Rate: 0.05 + rng.Float64()*0.1, DurMS: 1500},
		// A non-rank-0 replica crash-restarts late, so recovery runs
		// against an established leader.
		{AtMS: 18000 + int64(rng.Intn(2000)), Kind: CrashRestart,
			Node: px(1 + rng.Intn(p.replicas-1)), DurMS: 2000 + int64(rng.Intn(1500))},
	}
}

// body adds the replicas px:0..2 to c, submits the commands, applies
// the schedule, and records what is wrong once the group has settled.
func (p paxosParams) body(c Env, seed int64, sched Schedule) error {
	pcfg, mcfg := paxos.DefaultConfig(), p.mon()
	installMon := func(rt *overlog.Runtime) error {
		return InstallPaxosMonitor(rt, mcfg)
	}
	var names, addrs []string
	var rts []*overlog.Runtime
	for i := 0; i < p.replicas; i++ {
		names = append(names, fmt.Sprintf("px:%d", i))
		rt, err := c.AddNode(names[i])
		if err != nil {
			return err
		}
		rts, addrs = append(rts, rt), append(addrs, rt.LocalAddr())
	}
	for i, rt := range rts {
		err := paxos.Install(rt, addrs[i], addrs, pcfg)
		if err == nil {
			err = installMon(rt)
		}
		if err == nil {
			err = c.SetSpec(names[i], WrapSpec(paxos.RestartSpec(addrs[i], addrs, pcfg), installMon))
		}
		if err != nil {
			return err
		}
	}

	// Commands go to every replica (duplicate submission is idempotent
	// once a decision replicates), so a crashed submission target never
	// strands a command.
	submit := func(i int) {
		id := fmt.Sprintf("cmd-%02d", i)
		cmd := overlog.List(overlog.Str(id), overlog.Str(fmt.Sprintf("op-%d", i)))
		for j, m := range names {
			c.Inject(m, overlog.NewTuple("paxos_request",
				overlog.Addr(addrs[j]), overlog.Str(id), cmd), 0)
		}
	}
	decidedIDs := func(m string) map[string]bool {
		got := map[string]bool{}
		c.RunOn(m, func(rt *overlog.Runtime) {
			for _, cmd := range paxos.Decided(rt) {
				if len(cmd) > 0 {
					got[cmd[0].AsString()] = true
				}
			}
		})
		return got
	}
	rng := rand.New(rand.NewSource(seed ^ 0x70a5))
	deadline := int64(0)
	for i := 0; i < p.commands; i++ {
		at := int64(1000 + i*2200 + rng.Intn(700))
		c.At(at, func() error { submit(i); return nil })
		deadline = at
	}
	// The request queue is soft state: a crash-restarted replica forgets
	// undelivered commands, and loss bursts can eat the original
	// submission. Clients of a consensus service retry until they see a
	// decision, so the workload does too.
	for at := deadline + 3000; at < deadline+90_000; at += 3000 {
		c.At(at, func() error {
			for i := 0; i < p.commands; i++ {
				id := fmt.Sprintf("cmd-%02d", i)
				everywhere := true
				for _, m := range names {
					if !decidedIDs(m)[id] {
						everywhere = false
						break
					}
				}
				if !everywhere {
					submit(i)
				}
			}
			return nil
		})
	}

	if err := sched.Apply(c); err != nil {
		return err
	}

	// Liveness: every command decided on every replica.
	missing := func(m string) []string {
		got := decidedIDs(m)
		var out []string
		for i := 0; i < p.commands; i++ {
			if id := fmt.Sprintf("cmd-%02d", i); !got[id] {
				out = append(out, id)
			}
		}
		return out
	}
	allDecided := func() bool {
		for _, m := range names {
			if len(missing(m)) > 0 {
				return false
			}
		}
		return true
	}
	record := func(m string, v Violation) {
		c.RunOn(m, func(rt *overlog.Runtime) { RecordViolation(rt, v) })
	}

	// Run the schedule out plus a full grace window, then give the
	// group bounded extra time to finish deciding.
	settle := sched.End() + mcfg.GraceMS + 3*mcfg.TickMS + 5000
	if err := c.Run(settle); err != nil {
		return err
	}
	if _, err := c.RunUntil(allDecided, c.Now()+60_000); err != nil {
		return err
	}
	if !allDecided() {
		for _, m := range names {
			if miss := missing(m); len(miss) > 0 {
				record(m, Violation{Inv: "px-liveness", Node: m, TimeMS: c.Now(),
					Detail: fmt.Sprintf("undecided after faults healed: %v", miss)})
			}
		}
	}

	// Ground-truth cross-replica agreement check: the in-protocol
	// monitor sees what the wire delivers; the harness sees everything.
	slots := map[int64]string{}
	slotAt := map[int64]string{}
	for _, m := range names {
		var decided map[int64][]overlog.Value
		c.RunOn(m, func(rt *overlog.Runtime) { decided = paxos.Decided(rt) })
		for slot, cmd := range decided {
			rendered := overlog.List(cmd...).String()
			if prev, ok := slots[slot]; ok && prev != rendered {
				record(m, Violation{Inv: "log-agreement", Node: m, TimeMS: c.Now(),
					Detail: fmt.Sprintf("slot %d: %s here vs %s at %s",
						slot, rendered, prev, slotAt[slot])})
				continue
			}
			slots[slot] = rendered
			slotAt[slot] = m
		}
	}
	return nil
}
