// Package experiments implements the paper's evaluation: one entry
// point per table or figure. Each experiment builds a simulated
// cluster, runs the workload, and returns structured results whose
// Report renders the artifact's table for EXPERIMENTS.md. RunPaper
// runs them all at their documented parameters; cmd/boom-bench writes
// the tables and the behaviour golden from it, and the package's tests
// check both files against a fresh run.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/hadoopfs"
	"repro/internal/mrbase"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FSKind selects the file-system master implementation.
type FSKind int

// File-system kinds.
const (
	FSBoom FSKind = iota // Overlog master
	FSBase               // imperative NameNode (stands in for stock HDFS)
)

func (k FSKind) String() string {
	if k == FSBoom {
		return "BOOM-FS"
	}
	return "HDFS(base)"
}

// MRKind selects the MapReduce scheduler implementation.
type MRKind int

// Scheduler kinds.
const (
	MRBoom MRKind = iota // Overlog JobTracker (FIFO rules)
	MRBase               // imperative JobTracker (Hadoop-style FIFO)
)

func (k MRKind) String() string {
	if k == MRBoom {
		return "BOOM-MR"
	}
	return "Hadoop(base)"
}

// scheduler abstracts the two JobTracker implementations.
type scheduler interface {
	NewJobID() int64
	Submit(*boommr.Job)
	Wait(jobID, maxMS int64) (bool, error)
	JobDoneAt(jobID int64) (int64, bool)
	Completions(jobID int64) []boommr.TaskCompletion
	SpeculativeAttempts(jobID int64) int
}

// PerfParams sizes the F1 experiment.
type PerfParams struct {
	DataNodes     int
	TaskTrackers  int
	NumSplits     int
	BytesPerSplit int
	NumReduce     int
	Seed          int64
}

// DefaultPerfParams mirrors the paper's shape at laptop scale.
func DefaultPerfParams() PerfParams {
	return PerfParams{DataNodes: 10, TaskTrackers: 10, NumSplits: 20,
		BytesPerSplit: 32 << 10, NumReduce: 10, Seed: 42}
}

// PerfCombo is the outcome for one {scheduler} x {fs} cell.
type PerfCombo struct {
	FS        FSKind
	MR        MRKind
	IngestMS  int64
	JobMS     int64
	MapCDF    *trace.CDF
	ReduceCDF *trace.CDF
}

// PerfResult is the full F1 grid.
type PerfResult struct {
	Params PerfParams
	Combos []PerfCombo
}

// RunPerf reproduces Figure "task completion CDFs for {Hadoop,BOOM-MR}
// x {HDFS,BOOM-FS}": a wordcount whose input is ingested through the
// selected FS, scheduled by the selected JobTracker.
func RunPerf(p PerfParams) (*PerfResult, error) {
	res := &PerfResult{Params: p}
	for _, fsKind := range []FSKind{FSBase, FSBoom} {
		for _, mrKind := range []MRKind{MRBase, MRBoom} {
			combo, err := runPerfCombo(p, fsKind, mrKind)
			if err != nil {
				return nil, fmt.Errorf("perf %v/%v: %w", fsKind, mrKind, err)
			}
			res.Combos = append(res.Combos, *combo)
		}
	}
	return res, nil
}

func runPerfCombo(p PerfParams, fsKind FSKind, mrKind MRKind) (*PerfCombo, error) {
	c := sim.NewCluster(sim.WithClusterSeed(p.Seed))
	fsCfg := boomfs.DefaultConfig()
	fsCfg.ChunkSize = 16 << 10

	// File system under test.
	var masterAddr string
	switch fsKind {
	case FSBoom:
		m, err := boomfs.NewMaster(c, "fsmaster:0", fsCfg)
		if err != nil {
			return nil, err
		}
		masterAddr = m.Addr
	case FSBase:
		nn, err := hadoopfs.NewNameNode(c, "fsmaster:0", fsCfg)
		if err != nil {
			return nil, err
		}
		masterAddr = nn.Addr
	}
	for i := 0; i < p.DataNodes; i++ {
		if _, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), masterAddr, fsCfg); err != nil {
			return nil, err
		}
	}
	client, err := boomfs.NewClient(c, "client:0", fsCfg, masterAddr)
	if err != nil {
		return nil, err
	}

	// MapReduce engine under test.
	mrCfg := boommr.DefaultMRConfig()
	reg := boommr.NewRegistry()
	var sched scheduler
	switch mrKind {
	case MRBoom:
		jt, err := boommr.NewJobTracker(c, "jt:0", boommr.FIFO, mrCfg, reg)
		if err != nil {
			return nil, err
		}
		sched = jt
	case MRBase:
		jt, err := mrbase.NewJobTracker(c, "jt:0", false, mrCfg, reg)
		if err != nil {
			return nil, err
		}
		sched = jt
	}
	for i := 0; i < p.TaskTrackers; i++ {
		if _, err := boommr.NewTaskTracker(c, fmt.Sprintf("tt:%d", i), "jt:0", mrCfg, reg); err != nil {
			return nil, err
		}
	}
	if err := c.Run(fsCfg.HeartbeatMS*2 + 10); err != nil {
		return nil, err
	}

	// Phase 1: ingest the corpus through the FS under test.
	splits := workload.Corpus(p.Seed, p.NumSplits, p.BytesPerSplit)
	ingestStart := c.Now()
	if err := client.Mkdir("/job"); err != nil {
		return nil, err
	}
	for i, s := range splits {
		if err := client.WriteFile(fmt.Sprintf("/job/split-%03d", i), s); err != nil {
			return nil, err
		}
	}
	combo := &PerfCombo{FS: fsKind, MR: mrKind, MapCDF: &trace.CDF{}, ReduceCDF: &trace.CDF{}}
	combo.IngestMS = c.Now() - ingestStart

	// Phase 2: read the splits back from the FS (the map-side input
	// path) and run the wordcount under the scheduler under test.
	inputs := make([]string, len(splits))
	for i := range splits {
		data, err := client.ReadFile(fmt.Sprintf("/job/split-%03d", i))
		if err != nil {
			return nil, err
		}
		inputs[i] = data
	}
	job := boommr.NewJob(sched.NewJobID(), inputs, p.NumReduce,
		boommr.WordCountMap, boommr.WordCountReduce)
	jobStart := c.Now()
	sched.Submit(job)
	done, err := sched.Wait(job.ID, 3_600_000)
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("job did not complete")
	}
	doneAt, _ := sched.JobDoneAt(job.ID)
	combo.JobMS = doneAt - jobStart
	for _, tc := range sched.Completions(job.ID) {
		if tc.Type == "map" {
			combo.MapCDF.Add(tc.DoneAt - jobStart)
		} else {
			combo.ReduceCDF.Add(tc.DoneAt - jobStart)
		}
	}
	return combo, nil
}

// Report renders the grid as the paper's figure stand-in.
func (r *PerfResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured (%d splits × %d KB, %d datanodes, %d tasktrackers, %d reduces; simulated ms):\n\n",
		r.Params.NumSplits, r.Params.BytesPerSplit>>10, r.Params.DataNodes,
		r.Params.TaskTrackers, r.Params.NumReduce)
	b.WriteString("| combo | ingest | job | map p50 | map p90 | map max | reduce p50 | reduce max |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, cb := range r.Combos {
		fmt.Fprintf(&b, "| %s + %s | %d | %d | %d | %d | %d | %d | %d |\n",
			cb.MR, cb.FS, cb.IngestMS, cb.JobMS,
			cb.MapCDF.Percentile(50), cb.MapCDF.Percentile(90), cb.MapCDF.Max(),
			cb.ReduceCDF.Percentile(50), cb.ReduceCDF.Max())
	}
	return b.String()
}

// MaxRatio returns the worst-case ratio of job times across combos, the
// quantitative "shape" check (paper: close to 1).
func (r *PerfResult) MaxRatio() float64 {
	if len(r.Combos) == 0 {
		return 0
	}
	min, max := r.Combos[0].JobMS, r.Combos[0].JobMS
	for _, cb := range r.Combos {
		if cb.JobMS < min {
			min = cb.JobMS
		}
		if cb.JobMS > max {
			max = cb.JobMS
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}
