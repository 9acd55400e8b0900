package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ScaleupParams sizes the F3 experiment.
type ScaleupParams struct {
	Partitions   []int // master counts to sweep
	Clients      int
	OpsPerClient int
	Mix          workload.MetaMix
	Seed         int64
	// MasterServiceMS models master CPU per metadata request. Without
	// it a simulated master has infinite capacity and partitioning shows
	// no benefit; the paper's masters were CPU-bound at saturation.
	MasterServiceMS int64
}

// DefaultScaleupParams mirrors the paper's partitioned-master sweep.
func DefaultScaleupParams() ScaleupParams {
	return ScaleupParams{Partitions: []int{1, 2, 4}, Clients: 8,
		OpsPerClient: 100, Mix: workload.CreateHeavy(), Seed: 11,
		MasterServiceMS: 2}
}

// ScaleupPoint is the outcome for one partition count.
type ScaleupPoint struct {
	Partitions int
	TotalMS    int64
	Throughput float64 // metadata ops per simulated second
	OpCDF      *trace.CDF
}

// ScaleupResult is the full F3 sweep.
type ScaleupResult struct {
	Params ScaleupParams
	Points []ScaleupPoint
}

// RunScaleup reproduces the partitioned-master scale-up figure: C
// concurrent clients stream metadata operations against 1..P
// hash-partitioned masters; throughput should grow near-linearly until
// clients saturate.
func RunScaleup(p ScaleupParams) (*ScaleupResult, error) {
	res := &ScaleupResult{Params: p}
	for _, parts := range p.Partitions {
		pt, err := runScaleupPoint(p, parts)
		if err != nil {
			return nil, fmt.Errorf("scaleup %d partitions: %w", parts, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func runScaleupPoint(p ScaleupParams, parts int) (*ScaleupPoint, error) {
	cfg := boomfs.DefaultConfig()
	opts := []sim.Option{sim.WithClusterSeed(p.Seed)}
	if p.MasterServiceMS > 0 {
		svc := p.MasterServiceMS
		opts = append(opts, sim.WithServiceTime(func(node, table string) int64 {
			if table == "request" && strings.HasPrefix(node, "master") {
				return svc
			}
			return 0
		}))
	}
	c := sim.NewCluster(opts...)
	_, addrs, err := partition.NewMasters(c, "master", parts, cfg)
	if err != nil {
		return nil, err
	}

	// One client node per logical client, all partition-routed.
	type clientState struct {
		cl          *boomfs.Client
		fs          *partition.FS
		ops         []workload.MetaOp
		next        int
		outstanding string
		sentAt      int64
	}
	var clients []*clientState
	for i := 0; i < p.Clients; i++ {
		cl, err := boomfs.NewClient(c, fmt.Sprintf("client:%d", i), cfg, addrs...)
		if err != nil {
			return nil, err
		}
		fs, err := partition.NewFS(cl, addrs)
		if err != nil {
			return nil, err
		}
		clients = append(clients, &clientState{
			cl: cl, fs: fs,
			ops: workload.MetaStream(p.Seed+int64(i), fmt.Sprintf("c%d", i), "/bench", p.OpsPerClient, p.Mix),
		})
	}
	// Shared namespace root on every partition.
	if err := clients[0].fs.Mkdir("/bench"); err != nil {
		return nil, err
	}

	pt := &ScaleupPoint{Partitions: parts, OpCDF: &trace.CDF{}}
	start := c.Now()
	done := 0
	total := p.Clients * p.OpsPerClient

	send := func(cs *clientState) {
		op := cs.ops[cs.next]
		cs.next++
		cs.outstanding = cs.fs.SendAsync(op.Op, op.Path, op.Arg)
		cs.sentAt = c.Now()
	}
	for _, cs := range clients {
		send(cs)
	}
	// Drive the cluster; each client keeps exactly one op in flight.
	for done < total {
		progressed, err := c.Step()
		if err != nil {
			return nil, err
		}
		if !progressed {
			return nil, fmt.Errorf("simulation stalled with %d/%d ops done", done, total)
		}
		for _, cs := range clients {
			if cs.outstanding == "" {
				continue
			}
			if _, ok := cs.cl.Poll(cs.outstanding); !ok {
				continue
			}
			pt.OpCDF.Add(c.Now() - cs.sentAt)
			cs.outstanding = ""
			done++
			if cs.next < len(cs.ops) {
				send(cs)
			}
		}
		if c.Now()-start > 3_600_000 {
			return nil, fmt.Errorf("scaleup run exceeded an hour of simulated time")
		}
	}
	pt.TotalMS = c.Now() - start
	if pt.TotalMS > 0 {
		pt.Throughput = float64(total) / (float64(pt.TotalMS) / 1000)
	}
	return pt, nil
}

// Report renders the sweep.
func (r *ScaleupResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d closed-loop clients × %d create-heavy metadata ops, %d ms modeled master CPU per request; simulated ms):\n\n",
		r.Params.Clients, r.Params.OpsPerClient, r.Params.MasterServiceMS)
	b.WriteString("| partitions | total | throughput | speedup | op p50 | op p90 |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "| %d | %d | %.1f/s | %.2f× | %d | %d |\n",
			pt.Partitions, pt.TotalMS, pt.Throughput, r.Speedup(pt),
			pt.OpCDF.Percentile(50), pt.OpCDF.Percentile(90))
	}
	return b.String()
}

// Speedup is a point's throughput over the first point's.
func (r *ScaleupResult) Speedup(pt ScaleupPoint) float64 {
	if len(r.Points) == 0 || r.Points[0].Throughput == 0 {
		return 0
	}
	return pt.Throughput / r.Points[0].Throughput
}
