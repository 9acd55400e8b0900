package live

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/boomfs"
	"repro/internal/chaos"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/rtfs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The live scenarios share their names and seed-derived schedules with
// the simulated registry — that is the acceptance contract: one fault
// plan, two drivers. What changes is the clock. Protocol timeouts,
// monitor windows, and workload pacing are the sim scenarios' values
// divided by the compression factor, so the fault/timeout geometry
// (how many heartbeat periods a partition spans, how many grace
// windows a restart burns) is preserved while a 35-second simulated
// plan replays in a few wall seconds.

// compress is the schedule-to-wall divisor for the built-in scenarios.
const compress = 10

// Registry lists the scenarios that run over real TCP. fs-weak is
// omitted deliberately: it exists to prove the *deterministic* harness
// can fail and shrink, and its permanent-kill durability violations
// shrink poorly under wall-clock jitter. mr is sim-only (its modeled
// task timings have no live equivalent).
func Registry() []chaos.Scenario {
	return []chaos.Scenario{FS(), Paxos()}
}

// FS is the replicated-FS scenario on real sockets: the same schedule
// generator as chaos.ReplicatedFS, executed against rtfs-style nodes.
func FS() chaos.Scenario {
	base := chaos.ReplicatedFS()
	return chaos.Scenario{Name: base.Name, Schedule: base.Schedule, Run: runFS}
}

// Paxos is the bare-consensus scenario on real sockets.
func Paxos() chaos.Scenario {
	base := chaos.Paxos()
	return chaos.Scenario{Name: base.Name, Schedule: base.Schedule, Run: runPaxos}
}

// livePaxosConfig is paxos.DefaultConfig() compressed.
func livePaxosConfig() paxos.Config {
	return paxos.Config{TickMS: 30, ElectTimeout: 120, BallotStride: 100, SyncMS: 100}
}

func runFS(seed int64, sched chaos.Schedule) chaos.Outcome {
	const (
		masters   = 3
		datanodes = 5
		files     = 6
	)
	lc := NewCluster(seed, compress, telemetry.NewRegistry())
	defer lc.Close()
	out := chaos.Outcome{Tracer: lc.Tracer()}
	fail := func(err error) chaos.Outcome { out.Err = err; return out }

	// chaos.ReplicatedFS's config with every clock divided by compress.
	cfg := boomfs.DefaultConfig()
	cfg.ReplicationFactor = 2
	cfg.ChunkSize = 16
	cfg.HeartbeatMS = 50
	cfg.DNTimeoutMS = 200
	cfg.FDTickMS = 100
	cfg.GCTickMS = 500
	cfg.GCGraceMS = 1000
	pcfg := livePaxosConfig()
	// Monitor windows are wall milliseconds here (the rules run on the
	// nodes' wall clocks): 1000/20000 simulated becomes 100/2000.
	mcfg := chaos.MonitorConfig{TickMS: 100, GraceMS: 2000, Repl: cfg.ReplicationFactor}

	// Master replicas: allocate every address first — the replica list
	// baked into the programs is the list of real TCP addresses.
	var maddrs []string
	var mrts []*overlog.Runtime
	for i := 0; i < masters; i++ {
		rt, err := lc.AddNode(fmt.Sprintf("fsm:%d", i))
		if err != nil {
			return fail(err)
		}
		mrts = append(mrts, rt)
		maddrs = append(maddrs, rt.LocalAddr())
	}
	installMon := func(rt *overlog.Runtime) error {
		if err := chaos.InstallPaxosMonitor(rt, mcfg); err != nil {
			return err
		}
		return chaos.InstallFSMonitor(rt, mcfg)
	}
	for i, rt := range mrts {
		if err := boomfs.InstallReplicatedMaster(rt, maddrs[i], maddrs, cfg, pcfg); err != nil {
			return fail(err)
		}
		if err := installMon(rt); err != nil {
			return fail(err)
		}
		self := maddrs[i]
		base := sim.NodeSpec(func(fresh *overlog.Runtime) ([]sim.Service, error) {
			return nil, boomfs.ReplicatedMasterRestart(fresh, self, maddrs, cfg, pcfg)
		})
		if err := lc.SetSpec(fmt.Sprintf("fsm:%d", i), chaos.WrapSpec(base, installMon)); err != nil {
			return fail(err)
		}
	}

	// Datanodes: the exact data-plane service and restart recipe the
	// simulator attaches — chunk bytes are the disk and survive crashes.
	for i := 0; i < datanodes; i++ {
		name := fmt.Sprintf("dn:%d", i)
		rt, err := lc.AddNode(name)
		if err != nil {
			return fail(err)
		}
		dn, svc, err := boomfs.NewDataNodeOnRuntime(rt, maddrs[0], cfg)
		if err != nil {
			return fail(err)
		}
		for _, m := range maddrs[1:] {
			if err := dn.AddMaster(m); err != nil {
				return fail(err)
			}
		}
		if err := lc.AttachService(name, svc); err != nil {
			return fail(err)
		}
		if err := lc.SetSpec(name, dn.RestartSpec()); err != nil {
			return fail(err)
		}
	}
	if err := lc.Start(); err != nil {
		return fail(err)
	}

	// The failover client joins the shared fault plane: its sends suffer
	// the same partitions and loss bursts as everyone else's.
	caddr, err := reserveAddr()
	if err != nil {
		return fail(err)
	}
	cl, err := rtfs.NewReplicatedClient(caddr, maddrs, 6*time.Second, 400*time.Millisecond)
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	cl.Transport().SetFaults(lc.Faults())
	cl.Transport().SetDialBackoff(10*time.Millisecond, 200*time.Millisecond)

	lc.Apply(sched)

	// Workload: acked chunk writes spaced so faults interleave, exactly
	// the simulated scenario's loop on a compressed clock. Ops that fail
	// under faults carry no ack and drop out of the checked set.
	lc.SleepSim(1500)
	if err := cl.Mkdir("/data"); err != nil {
		return fail(fmt.Errorf("mkdir /data: %w", err))
	}
	type acked struct {
		path string
		data string
	}
	var written []acked
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/data/f%02d", i)
		data := strings.Repeat(fmt.Sprintf("%d", i%10), cfg.ChunkSize)
		next := lc.SimNow() + 3000
		if err := cl.Create(path); err == nil {
			if cid, locs, err := cl.AddChunk(path); err == nil {
				if err := cl.WriteChunk(cid, locs, data); err == nil {
					for j := 0; j < masters; j++ {
						lc.Inject(fmt.Sprintf("fsm:%d", j), overlog.NewTuple("mon_acked",
							overlog.Int(cid), overlog.Int(int64(len(data)))))
					}
					written = append(written, acked{path: path, data: data})
				}
			}
		}
		lc.SleepSim(next)
	}

	// Let the schedule finish, then hold a full monitor grace window
	// plus slack: anything still broken is a violation.
	lc.SleepSim(sched.End())
	time.Sleep(time.Duration(mcfg.GraceMS+3*mcfg.TickMS+500) * time.Millisecond)

	// Empirical durability: every acked write must still read back. The
	// simulated client retries each op for RetryMS=4000 sim-ms; grant
	// the live client the same bounded allowance — a master replica that
	// just restarted serves chunk locations from soft state still being
	// rebuilt from datanode reports, and durability means the data is
	// readable within a bounded window, not on the first post-chaos RPC.
	for _, w := range written {
		var got string
		var err error
		deadline := time.Now().Add(5 * time.Second)
		for {
			got, err = cl.ReadFile(w.path)
			if (err == nil && got == w.data) || time.Now().After(deadline) {
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		if err == nil && got == w.data {
			continue
		}
		detail := fmt.Sprintf("acked write %s no longer reads back", w.path)
		if err != nil {
			detail += ": " + err.Error()
		}
		v := chaos.Violation{Inv: "read-back", Node: "client", TimeMS: lc.SimNow(), Detail: detail}
		lc.RunOn("fsm:0", func(rt *overlog.Runtime) { chaos.RecordViolation(rt, v) })
	}

	out.Violations = lc.Collect()
	out.Err = lc.Err()
	return out
}

func runPaxos(seed int64, sched chaos.Schedule) chaos.Outcome {
	const (
		replicas = 3
		commands = 8
	)
	lc := NewCluster(seed, compress, telemetry.NewRegistry())
	defer lc.Close()
	out := chaos.Outcome{Tracer: lc.Tracer()}
	fail := func(err error) chaos.Outcome { out.Err = err; return out }

	pcfg := livePaxosConfig()
	// 500/12000 simulated monitor clocks, compressed to wall time.
	mcfg := chaos.MonitorConfig{TickMS: 50, GraceMS: 1200}

	var names []string
	var addrs []string
	var rts []*overlog.Runtime
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("px:%d", i)
		rt, err := lc.AddNode(name)
		if err != nil {
			return fail(err)
		}
		names = append(names, name)
		addrs = append(addrs, rt.LocalAddr())
		rts = append(rts, rt)
	}
	installMon := func(rt *overlog.Runtime) error {
		return chaos.InstallPaxosMonitor(rt, mcfg)
	}
	for i, rt := range rts {
		if err := paxos.Install(rt, addrs[i], addrs, pcfg); err != nil {
			return fail(err)
		}
		if err := installMon(rt); err != nil {
			return fail(err)
		}
		if err := lc.SetSpec(names[i], chaos.WrapSpec(paxos.RestartSpec(addrs[i], addrs, pcfg), installMon)); err != nil {
			return fail(err)
		}
	}
	if err := lc.Start(); err != nil {
		return fail(err)
	}

	// Commands go to every replica; resubmission below covers soft-state
	// loss on crash and submissions eaten by loss bursts — exactly the
	// simulated workload's retry contract.
	submit := func(i int) {
		id := fmt.Sprintf("cmd-%02d", i)
		cmd := overlog.List(overlog.Str(id), overlog.Str(fmt.Sprintf("op-%d", i)))
		for j, a := range addrs {
			lc.Inject(names[j], overlog.NewTuple("paxos_request",
				overlog.Addr(a), overlog.Str(id), cmd))
		}
	}
	decidedIDs := func(name string) map[string]bool {
		got := map[string]bool{}
		lc.RunOn(name, func(rt *overlog.Runtime) {
			for _, cmd := range paxos.Decided(rt) {
				if len(cmd) > 0 {
					got[cmd[0].AsString()] = true
				}
			}
		})
		return got
	}
	missing := func(name string) []string {
		got := decidedIDs(name)
		var miss []string
		for i := 0; i < commands; i++ {
			if id := fmt.Sprintf("cmd-%02d", i); !got[id] {
				miss = append(miss, id)
			}
		}
		return miss
	}
	allDecided := func() bool {
		for _, name := range names {
			if len(missing(name)) > 0 {
				return false
			}
		}
		return true
	}
	resubmitUndecided := func() {
		for i := 0; i < commands; i++ {
			id := fmt.Sprintf("cmd-%02d", i)
			everywhere := true
			for _, name := range names {
				if !decidedIDs(name)[id] {
					everywhere = false
					break
				}
			}
			if !everywhere {
				submit(i)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed ^ 0x70a5))
	var last int64
	for i := 0; i < commands; i++ {
		i := i
		at := int64(1000 + i*2200 + rng.Intn(700))
		lc.after(at, func() { submit(i) })
		last = at
	}

	lc.Apply(sched)

	// Run the schedule out plus a full grace window (simulated-ms
	// arithmetic: mcfg is wall-ms, schedule times are not), resubmitting
	// along the way, then give the group bounded extra time to decide.
	settle := sched.End() + (mcfg.GraceMS+3*mcfg.TickMS)*compress + 5000
	if last+3000 > settle {
		settle = last + 3000
	}
	for lc.SimNow() < settle {
		lc.SleepSim(lc.SimNow() + 3000)
		resubmitUndecided()
	}
	liveness := lc.SimNow() + 60_000
	for !allDecided() && lc.SimNow() < liveness {
		resubmitUndecided()
		lc.SleepSim(lc.SimNow() + 3000)
	}
	if !allDecided() {
		for _, name := range names {
			if miss := missing(name); len(miss) > 0 {
				v := chaos.Violation{Inv: "px-liveness", Node: name, TimeMS: lc.SimNow(),
					Detail: fmt.Sprintf("undecided after faults healed: %v", miss)}
				lc.RunOn(name, func(rt *overlog.Runtime) { chaos.RecordViolation(rt, v) })
			}
		}
	}

	// Ground-truth cross-replica agreement: the in-protocol monitor sees
	// what the wire delivers; the harness reads everything.
	slots := map[int64]string{}
	slotAt := map[int64]string{}
	for _, name := range names {
		name := name
		var local map[int64][]overlog.Value
		lc.RunOn(name, func(rt *overlog.Runtime) { local = paxos.Decided(rt) })
		for slot, cmd := range local {
			rendered := overlog.List(cmd...).String()
			if prevCmd, ok := slots[slot]; ok && prevCmd != rendered {
				v := chaos.Violation{Inv: "log-agreement", Node: name, TimeMS: lc.SimNow(),
					Detail: fmt.Sprintf("slot %d: %s here vs %s at %s",
						slot, rendered, prevCmd, slotAt[slot])}
				lc.RunOn(name, func(rt *overlog.Runtime) { chaos.RecordViolation(rt, v) })
				continue
			}
			slots[slot] = rendered
			slotAt[slot] = name
		}
	}

	out.Violations = lc.Collect()
	out.Err = lc.Err()
	return out
}
