package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
)

// fsParams shapes the replicated-FS scenario.
type fsParams struct {
	masters   int
	datanodes int
	repl      int
	files     int
	// weaken drops the replication factor to 1 and kills datanodes
	// permanently — the configuration the durability monitor exists to
	// catch.
	weaken bool
}

// ReplicatedFS is the flagship scenario: BOOM-FS with Paxos-replicated
// masters and a churning datanode fleet. Master replicas crash-restart
// (losing soft state, recovering their durable checkpoint), datanodes
// crash-restart (chunk disks survive), links partition, slow down, and
// drop messages — and the invariant monitors must stay silent.
func ReplicatedFS() Scenario {
	p := fsParams{masters: 3, datanodes: 5, repl: 2, files: 6}
	return simScenario("fs", p.schedule, p.body)
}

// WeakDurability is ReplicatedFS with the safety margin removed:
// replication factor 1 and permanent datanode kills. Some acked chunk
// loses its only replica, the durability monitor fires, and the sweep
// runner shrinks the schedule to the kills that actually destroyed
// data.
func WeakDurability() Scenario {
	p := fsParams{masters: 3, datanodes: 5, repl: 1, files: 6, weaken: true}
	return simScenario("fs-weak", p.schedule, p.body)
}

// fsRetryMS bounds one client attempt against one master replica.
const fsRetryMS = 4000

// config is the scenario's file-system config.
func (p fsParams) config() boomfs.Config {
	cfg := boomfs.DefaultConfig()
	cfg.ReplicationFactor = p.repl
	cfg.ChunkSize = 16
	cfg.OpTimeoutMS = 60_000
	return cfg
}

func (p fsParams) mon() MonitorConfig {
	return MonitorConfig{TickMS: 1000, GraceMS: 20000, Repl: p.repl}
}

func (p fsParams) schedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var s Schedule
	dn := func(i int) string { return fmt.Sprintf("dn:%d", i) }
	master := func(i int) string { return fmt.Sprintf("fsm:%d", i) }

	if p.weaken {
		// Two permanent datanode kills plus decoy faults that a correct
		// shrink should strip away.
		k1 := rng.Intn(p.datanodes)
		k2 := (k1 + 1 + rng.Intn(p.datanodes-1)) % p.datanodes
		s = append(s,
			Action{AtMS: 16000 + int64(rng.Intn(2000)), Kind: Kill, Node: dn(k1)},
			Action{AtMS: 19000 + int64(rng.Intn(2000)), Kind: Kill, Node: dn(k2)},
			Action{AtMS: 5000, Kind: LossBurst, Rate: 0.05, DurMS: 2000},
			Action{AtMS: 8000, Kind: SlowLink, A: master(0), B: dn((k1 + 2) % p.datanodes), LatMS: 25, DurMS: 4000},
			Action{AtMS: 11000, Kind: Partition, A: master(1), B: master(2), DurMS: 1500},
		)
		return s
	}

	// Healthy config: sequential datanode crash-restarts (one down at a
	// time, downtime well under the monitor grace window), one master
	// crash-restart mid-workload, a brief master partition, a loss
	// burst, and a slow link.
	at := int64(4000)
	for i := 0; i < 3; i++ {
		victim := dn(rng.Intn(p.datanodes))
		down := 2000 + int64(rng.Intn(3000))
		s = append(s, Action{AtMS: at, Kind: CrashRestart, Node: victim, DurMS: down})
		at += down + 2500 + int64(rng.Intn(2000))
	}
	s = append(s,
		Action{AtMS: 9000 + int64(rng.Intn(4000)), Kind: CrashRestart,
			Node: master(rng.Intn(p.masters)), DurMS: 3000},
		Action{AtMS: 20000 + int64(rng.Intn(4000)), Kind: Partition,
			A: master(0), B: master(1), DurMS: 2000},
		Action{AtMS: 26000 + int64(rng.Intn(3000)), Kind: LossBurst,
			Rate: 0.05 + rng.Float64()*0.05, DurMS: 2000},
		Action{AtMS: 30000 + int64(rng.Intn(3000)), Kind: SlowLink,
			A: master(rng.Intn(p.masters)), B: dn(rng.Intn(p.datanodes)),
			LatMS: 20 + int64(rng.Intn(30)), DurMS: 4000},
	)
	return s
}

// body builds the cluster, starts the client and runs the workload.
func (p fsParams) body(env Env, _ int64, sched Schedule) error {
	masters, addrs, err := p.build(env)
	if err != nil {
		return err
	}
	cl, err := env.FSClient(p.config(), fsRetryMS, addrs)
	if err != nil {
		return err
	}
	return p.workload(env, cl, sched, masters)
}

// build adds the master replicas fsm:i and datanodes dn:i to c, with
// their monitors and restart recipes, and returns the masters' names
// and addresses.
func (p fsParams) build(c Builder) (masters, addrs []string, err error) {
	cfg, mcfg, pcfg := p.config(), p.mon(), paxos.DefaultConfig()
	installMon := func(rt *overlog.Runtime) error {
		if err := InstallPaxosMonitor(rt, mcfg); err != nil {
			return err
		}
		return InstallFSMonitor(rt, mcfg)
	}
	var rts []*overlog.Runtime
	for i := 0; i < p.masters; i++ {
		masters = append(masters, fmt.Sprintf("fsm:%d", i))
		rt, err := c.AddNode(masters[i])
		if err != nil {
			return nil, nil, err
		}
		rts, addrs = append(rts, rt), append(addrs, rt.LocalAddr())
	}
	for i, rt := range rts {
		self := addrs[i]
		restart := func(fresh *overlog.Runtime) ([]sim.Service, error) {
			return nil, boomfs.ReplicatedMasterRestart(fresh, self, addrs, cfg, pcfg)
		}
		err := boomfs.InstallReplicatedMaster(rt, self, addrs, cfg, pcfg)
		if err == nil {
			err = installMon(rt)
		}
		if err == nil {
			err = c.SetSpec(masters[i], WrapSpec(restart, installMon))
		}
		if err != nil {
			return nil, nil, err
		}
	}
	// Datanodes carry the data-plane service; chunk bytes are the disk
	// and survive crashes.
	for i := 0; i < p.datanodes; i++ {
		name := fmt.Sprintf("dn:%d", i)
		rt, err := c.AddNode(name)
		if err != nil {
			return nil, nil, err
		}
		dn, svc, err := boomfs.NewDataNodeOnRuntime(rt, addrs[0], cfg)
		if err == nil {
			err = c.AttachService(name, svc)
		}
		if err == nil {
			err = c.SetSpec(name, dn.RestartSpec())
		}
		for _, m := range addrs[1:] {
			if err == nil {
				err = dn.AddMaster(m)
			}
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return masters, addrs, nil
}

// workload applies the schedule, writes the files through cl while the
// faults fire, reports each acked chunk to the masters' monitors, and
// after the monitors' grace window records, at the first master, a
// read-back violation for every acked write that no longer reads back.
func (p fsParams) workload(c Driver, cl *boomfs.Client, sched Schedule, masters []string) error {
	cfg, mcfg := p.config(), p.mon()
	if err := sched.Apply(c); err != nil {
		return err
	}

	// Workload: acked chunk writes, spaced out so faults interleave.
	// Every acked chunk is reported to all master replicas' durability
	// monitors; operations that fail under faults simply carry no ack.
	if err := c.Run(c.Now() + 1500); err != nil {
		return err
	}
	if err := cl.Mkdir("/data"); err != nil {
		return fmt.Errorf("mkdir /data: %w", err)
	}
	written := map[string]string{}
	var paths []string
	for i := 0; i < p.files; i++ {
		path := fmt.Sprintf("/data/f%02d", i)
		data := strings.Repeat(fmt.Sprintf("%d", i%10), cfg.ChunkSize)
		if err := cl.Create(path); err != nil {
			continue
		}
		cid, locs, err := cl.AddChunk(path)
		if err != nil {
			continue
		}
		if err := cl.WriteChunk(cid, locs, data); err != nil {
			continue
		}
		for _, m := range masters {
			c.Inject(m, overlog.NewTuple("mon_acked",
				overlog.Int(cid), overlog.Int(int64(len(data)))), 0)
		}
		written[path] = data
		paths = append(paths, path)
		if err := c.Run(c.Now() + 3000); err != nil {
			return err
		}
	}

	// Let the schedule finish, then give the monitors a full grace
	// window plus slack: anything still broken is a violation.
	settle := max(sched.End(), c.Now()) + mcfg.GraceMS + 3*mcfg.TickMS + 5000
	if err := c.Run(settle); err != nil {
		return err
	}

	// Empirical durability: every acked write must still read back.
	// (The monitor watches metadata; this drives the data plane.)
	for _, path := range paths {
		got, err := cl.ReadFile(path)
		if err != nil || got != written[path] {
			detail := fmt.Sprintf("acked write %s no longer reads back", path)
			if err != nil {
				detail += ": " + err.Error()
			}
			v := Violation{Inv: "read-back", Node: cl.Addr, TimeMS: c.Now(), Detail: detail}
			c.RunOn(masters[0], func(rt *overlog.Runtime) { RecordViolation(rt, v) })
		}
	}
	return nil
}
