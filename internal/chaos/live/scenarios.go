package live

import (
	"time"

	"repro/internal/boomfs"
	"repro/internal/chaos"
	"repro/internal/rtfs"
	"repro/internal/telemetry"
)

// Registry lists the scenarios that run over real TCP: the simulated
// registry's, with their names, seed-derived schedules and bodies, each
// run by this package's runner. fs-weak is omitted deliberately: it
// exists to prove the *deterministic* harness can fail and shrink, and
// live runs are not bit-replayable, so they shrink poorly.
func Registry() []chaos.Scenario {
	var out []chaos.Scenario
	for _, sc := range chaos.Registry() {
		if sc.Name == "fs-weak" {
			continue
		}
		sc.Run = func(seed int64, sched chaos.Schedule) chaos.Outcome { return run(sc.Body, seed, sched) }
		out = append(out, sc)
	}
	return out
}

// run is the live runner: a cluster on real sockets, the body with an
// rtfs client for its FS client, then the violations and the first
// infrastructure error.
func run(body chaos.Body, seed int64, sched chaos.Schedule) chaos.Outcome {
	lc := NewCluster(seed, telemetry.NewRegistry())
	defer lc.Close()
	var clients []*rtfs.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	env := chaos.Env{Builder: lc, FSClient: func(cfg boomfs.Config, retryMS int64, addrs []string) (*boomfs.Client, error) {
		cl, err := joinClient(lc, func(addr string) (*rtfs.Client, error) {
			return rtfs.NewReplicatedClient(addr, addrs,
				time.Duration(cfg.OpTimeoutMS)*time.Millisecond, time.Duration(retryMS)*time.Millisecond)
		})
		if err != nil {
			return nil, err
		}
		clients = append(clients, cl)
		return cl.Client, nil
	}}
	out := chaos.Outcome{Tracer: lc.Tracer()}
	if out.Err = body(env, seed, sched); out.Err == nil {
		out.Violations, out.Err = chaos.Collect(lc, lc.Nodes()), lc.Err()
	}
	return out
}

// joinClient starts an FS client at a free port and joins it to the
// cluster's clock, fault plane and event ring: its sends suffer the
// same partitions and loss bursts as everyone else's, and its ops'
// spans land in the ring beside the servers'.
func joinClient(lc *Cluster, start func(addr string) (*rtfs.Client, error)) (*rtfs.Client, error) {
	addr, release, err := reserveAddr()
	if err != nil {
		return nil, err
	}
	release()
	cl, err := start(addr)
	if err != nil {
		return nil, err
	}
	cl.Transport().SetClock(lc.Clock())
	cl.Transport().SetFaults(lc.Faults())
	cl.Transport().SetTracer(lc.Tracer())
	cl.Transport().SetDialBackoff(redialBase, redialCap)
	return cl, nil
}
