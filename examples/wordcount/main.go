// Wordcount: the full BOOM stack end to end.
//
// Builds a simulated cluster — one Overlog BOOM-FS master, datanodes,
// one Overlog BOOM-MR JobTracker, tasktrackers — ingests a corpus into
// the file system, runs a declaratively scheduled wordcount over it,
// and prints the top words. Run with:
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const (
		dataNodes    = 6
		taskTrackers = 6
		splits       = 12
		splitBytes   = 16 << 10
	)
	c := sim.NewCluster()

	// BOOM-FS: declarative master, imperative chunk stores.
	fsCfg := boomfs.DefaultConfig()
	fsCfg.ChunkSize = 8 << 10
	master, err := boomfs.NewMaster(c, "master:0", fsCfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < dataNodes; i++ {
		if _, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), master.Addr, fsCfg); err != nil {
			log.Fatal(err)
		}
	}
	client, err := boomfs.NewClient(c, "client:0", fsCfg, master.Addr)
	if err != nil {
		log.Fatal(err)
	}

	// BOOM-MR: declarative JobTracker (FIFO rules), imperative tasks.
	mrCfg := boommr.DefaultMRConfig()
	reg := boommr.NewRegistry()
	jt, _, err := boommr.Deploy(c, taskTrackers, boommr.FIFO, mrCfg, reg)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Run(1100); err != nil {
		log.Fatal(err)
	}

	// Ingest the corpus through the file system.
	fmt.Printf("ingesting %d splits into BOOM-FS...\n", splits)
	corpus := workload.Corpus(1, splits, splitBytes)
	if err := client.Mkdir("/job"); err != nil {
		log.Fatal(err)
	}
	for i, s := range corpus {
		if err := client.WriteFile(fmt.Sprintf("/job/split-%02d", i), s); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  master catalog: %d files, %d chunks, %d live datanodes\n",
		master.FileCount(), master.ChunkCount(), len(master.LiveDataNodes()))

	// Read the input back through the FS and run the job.
	inputs := make([]string, splits)
	for i := range corpus {
		data, err := client.ReadFile(fmt.Sprintf("/job/split-%02d", i))
		if err != nil {
			log.Fatal(err)
		}
		inputs[i] = data
	}
	job := boommr.NewJob(jt.NewJobID(), inputs, 4, boommr.WordCountMap, boommr.WordCountReduce)
	fmt.Printf("running wordcount (%d maps, %d reduces) under the Overlog scheduler...\n",
		job.NumMap(), job.NumRed)
	start := c.Now()
	jt.Submit(job)
	done, err := jt.Wait(job.ID, 3_600_000)
	if err != nil {
		log.Fatal(err)
	}
	if !done {
		log.Fatalf("job stuck in state %q", jt.JobState(job.ID))
	}
	doneAt, _ := jt.JobDoneAt(job.ID)
	fmt.Printf("  job finished in %dms of simulated time\n", doneAt-start)

	// Report.
	type wc struct {
		word  string
		count string
	}
	var rows []wc
	for w, n := range job.Output() {
		rows = append(rows, wc{w, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if len(rows[i].count) != len(rows[j].count) {
			return len(rows[i].count) > len(rows[j].count)
		}
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].word < rows[j].word
	})
	fmt.Println("\ntop words:")
	for i, r := range rows {
		if i == 8 {
			break
		}
		fmt.Printf("  %-12s %s\n", r.word, r.count)
	}
	fmt.Printf("\ntask completions (time since submit):\n")
	for _, tc := range jt.Completions(job.ID) {
		fmt.Printf("  %-7s task %2d at %5dms\n", tc.Type, tc.TaskID, tc.Duration)
	}
}
