// KV demo: a replicated key-value store composed from this repo's
// declarative substrates — the Overlog Paxos log orders writes, the
// internal/rsm cursor replays each once, and seven kvstore rules submit,
// apply and read them. Kill the leader mid-session and keep going.
// Run with:
//
//	go run ./examples/kvdemo
package main

import (
	"fmt"
	"log"

	"repro/internal/kvstore"
	"repro/internal/paxos"
	"repro/internal/sim"
)

func main() {
	c := sim.NewCluster()
	g, err := kvstore.NewGroup(c, "kv", 3, paxos.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cl, err := kvstore.NewClient(c, "client:0", g)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Run(500); err != nil {
		log.Fatal(err)
	}

	put := func(k, v string) {
		start := c.Now()
		if err := cl.Put(k, v); err != nil {
			log.Fatalf("put %s: %v", k, err)
		}
		fmt.Printf("  put %-8s = %-10q %5dms\n", k, v, c.Now()-start)
	}
	get := func(k string) {
		v, ok, err := cl.Get(k)
		if err != nil {
			log.Fatalf("get %s: %v", k, err)
		}
		fmt.Printf("  get %-8s -> %q (found=%v)\n", k, v, ok)
	}

	fmt.Printf("3-replica KV store over the Overlog Paxos log: %v\n\n", g.Replicas)
	put("lang", "overlog")
	put("venue", "eurosys10")
	get("lang")

	fmt.Printf("\n  >>> killing %s (the leader) <<<\n", g.Replicas[0])
	c.Kill(g.Replicas[0])
	put("after", "failover")
	get("venue")
	get("after")

	fmt.Println("\nsurvivors' replicated state:")
	for i := 1; i < 3; i++ {
		for _, k := range []string{"lang", "venue", "after"} {
			v, _ := g.ReplicaValue(i, k)
			fmt.Printf("  %s: %-8s = %q\n", g.Replicas[i], k, v)
		}
	}
}
