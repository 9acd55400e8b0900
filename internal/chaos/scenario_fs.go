package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
	return Scenario{
		Name:     "fs",
		Schedule: p.schedule,
		Run:      p.run,
	}
}

// WeakDurability is ReplicatedFS with the safety margin removed:
// replication factor 1 and permanent datanode kills. Some acked chunk
// loses its only replica, the durability monitor fires, and the sweep
// runner shrinks the schedule to the kills that actually destroyed
// data.
func WeakDurability() Scenario {
	p := fsParams{masters: 3, datanodes: 5, repl: 1, files: 6, weaken: true}
	return Scenario{
		Name:     "fs-weak",
		Schedule: p.schedule,
		Run:      p.run,
	}
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

func (p fsParams) run(seed int64, sched Schedule) Outcome {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithClusterSeed(seed), sim.WithTelemetry(reg),
		sim.WithProvenance(256), sim.WithTracer(tracer))
	out := Outcome{Tracer: tracer}
	fail := func(err error) Outcome { out.Err = err; return out }

	cfg := boomfs.DefaultConfig()
	cfg.ReplicationFactor = p.repl
	cfg.ChunkSize = 16
	cfg.OpTimeoutMS = 60_000
	mcfg := p.mon()

	rm, err := boomfs.NewReplicatedMaster(c, "fsm", p.masters, cfg, paxos.DefaultConfig())
	if err != nil {
		return fail(err)
	}
	installMon := func(rt *overlog.Runtime) error {
		if err := InstallPaxosMonitor(rt, mcfg); err != nil {
			return err
		}
		return InstallFSMonitor(rt, mcfg)
	}
	for i, addr := range rm.Replicas {
		if err := installMon(rm.Master(i).Runtime()); err != nil {
			return fail(err)
		}
		if err := c.SetSpec(addr, WrapSpec(rm.RestartSpec(i), installMon)); err != nil {
			return fail(err)
		}
	}
	var dns []*boomfs.DataNode
	for i := 0; i < p.datanodes; i++ {
		dn, err := boomfs.NewReplicatedDataNode(c, fmt.Sprintf("dn:%d", i), rm, cfg)
		if err != nil {
			return fail(err)
		}
		dns = append(dns, dn)
	}
	cl, err := boomfs.NewReplicatedClient(c, "client:0", cfg, rm)
	if err != nil {
		return fail(err)
	}
	cl.RetryMS = 4000

	sched.Apply(c)

	// Workload: acked chunk writes, spaced out so faults interleave.
	// Every acked chunk is reported to all master replicas' durability
	// monitors; operations that fail under faults simply carry no ack.
	if err := c.Run(c.Now() + 1500); err != nil {
		return fail(err)
	}
	if err := cl.Mkdir("/data"); err != nil {
		return fail(fmt.Errorf("mkdir /data: %w", err))
	}
	type acked struct {
		path string
		data string
	}
	var written []acked
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
		for _, m := range rm.Replicas {
			c.Inject(m, overlog.NewTuple("mon_acked",
				overlog.Int(cid), overlog.Int(int64(len(data)))), 0)
		}
		written = append(written, acked{path: path, data: data})
		if err := c.Run(c.Now() + 3000); err != nil {
			return fail(err)
		}
	}

	// Let the schedule finish, then give the monitors a full grace
	// window plus slack: anything still broken is a violation.
	settle := sched.End() + mcfg.GraceMS + 3*mcfg.TickMS + 5000
	if end := c.Now() + mcfg.GraceMS + 3*mcfg.TickMS + 5000; end > settle {
		settle = end
	}
	if err := c.Run(settle); err != nil {
		return fail(err)
	}

	// Empirical durability: every acked write must still read back.
	// (The monitor watches metadata; this drives the data plane.)
	for _, w := range written {
		got, err := cl.ReadFile(w.path)
		if err != nil || got != w.data {
			detail := fmt.Sprintf("acked write %s no longer reads back", w.path)
			if err != nil {
				detail += ": " + err.Error()
			}
			RecordViolation(cl.Runtime(), Violation{
				Inv: "read-back", Node: cl.Addr, TimeMS: c.Now(), Detail: detail})
		}
	}

	out.Violations = Collect(c)
	out.Provenance = ExplainViolation(c, out.Violations)
	out.Digest = digest(c)
	return out
}
