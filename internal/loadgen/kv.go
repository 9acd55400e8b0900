package loadgen

import (
	"fmt"
	"math/rand"

	"repro/internal/kvstore"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
)

// KVConfig describes one open-loop put stream against the
// Paxos-replicated key-value store: puts arrive at the preferred
// replica and complete when the kv_resp round trip lands in the
// client's kvr table (i.e. the write committed through the log).
type KVConfig struct {
	Replicas  int     `json:"replicas"`
	IdleNodes int     `json:"idle_nodes"`
	Seed      int64   `json:"seed"`
	Rate      float64 `json:"rate_per_sec"`
	Fixed     bool    `json:"fixed_rate,omitempty"`
	Ops       int64   `json:"ops"`
	Keys      int     `json:"keys"` // key-space size
	TimeoutMS int64   `json:"timeout_ms"`
}

func (cfg *KVConfig) defaults() {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 50
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 500
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.TimeoutMS <= 0 {
		cfg.TimeoutMS = 30_000
	}
}

// RunKV executes one open-loop KV put workload.
func RunKV(cfg KVConfig) (RunStats, error) {
	cfg.defaults()
	c := sim.NewCluster(sim.WithClusterSeed(cfg.Seed))

	g, err := kvstore.NewGroup(c, "kv", cfg.Replicas, paxos.DefaultConfig())
	if err != nil {
		return RunStats{}, err
	}
	cl, err := kvstore.NewClient(c, "kvc:0", g)
	if err != nil {
		return RunStats{}, err
	}
	if err := AddIdleNodes(c, "idle", cfg.IdleNodes); err != nil {
		return RunStats{}, err
	}

	var gen *Generator
	rt := cl.Runtime()
	if err := rt.AddWatch("kvr", "i"); err != nil {
		return RunStats{}, err
	}
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if gen != nil && ev.Insert && ev.Tuple.Table == "kvr" {
			gen.Complete(ev.Tuple.Vals[0].AsString(), ev.Time)
		}
	})

	// Warm-up: a synchronous put forces leader election to finish
	// before the open-loop clock starts.
	if err := cl.Put("warmup", "1"); err != nil {
		return RunStats{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	issue := func(i int64) (string, error) {
		k := fmt.Sprintf("k%04d", rng.Intn(cfg.Keys))
		return cl.SendPut(k, fmt.Sprintf("v%d", i)), nil
	}

	gen = NewGenerator(c, cfg.arrivals(), cfg.Seed+1, cfg.Ops, cfg.TimeoutMS, issue)
	res, err := gen.Run(c.Now()+1, c.Now()+horizon(cfg.Ops, cfg.Rate, cfg.TimeoutMS))
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{Result: res, Nodes: len(c.Nodes()), Steps: c.Steps()}, nil
}

func (cfg KVConfig) arrivals() Arrivals {
	if cfg.Fixed {
		return FixedRate(cfg.Rate)
	}
	return Poisson(cfg.Rate)
}
