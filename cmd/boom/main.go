// Command boom deploys BOOM-FS on real machines: the same Overlog
// rules and Go data-plane glue the simulator runs, driven on the wall
// clock over TCP. Node addresses are host:port strings and double as
// Overlog location specifiers.
//
// Start a cluster (three shells, or use & in one):
//
//	boom master   -listen 127.0.0.1:7070
//	boom datanode -listen 127.0.0.1:7071 -master 127.0.0.1:7070
//	boom datanode -listen 127.0.0.1:7072 -master 127.0.0.1:7070
//
// Then talk to it:
//
//	boom fs -master 127.0.0.1:7070 mkdir /demo
//	boom fs -master 127.0.0.1:7070 put /demo/hello "hello, declarative world"
//	boom fs -master 127.0.0.1:7070 ls /demo
//	boom fs -master 127.0.0.1:7070 get /demo/hello
//
// There is also a local Overlog toolbox for experimenting with rules:
//
//	boom olg my-program.olg              # run a file
//	boom olg -analyze my-program.olg     # CALM analysis + strata
//	boom repl                            # interactive shell
//	boom rules boomfs-master             # print a shipped rule set
//	boom mr-demo -policy late            # MapReduce over real TCP
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/programs"
	"repro/internal/repl"
	"repro/internal/rtfs"
	"repro/internal/rtmr"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "master":
		err = runMaster(os.Args[2:])
	case "datanode":
		err = runDataNode(os.Args[2:])
	case "fs":
		err = runFS(os.Args[2:])
	case "olg":
		err = runOlg(os.Args[2:])
	case "repl":
		err = runRepl(os.Args[2:])
	case "rules":
		err = runRules(os.Args[2:])
	case "mr-demo":
		err = runMRDemo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "boom: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `boom — BOOM-FS over real TCP, plus a local Overlog runner.

subcommands:
  master   -listen ADDR [-status ADDR] [-profile] [-restore F] [-checkpoint F]
           [-gossip [-gossip-seeds A,B]]        serve a BOOM-FS master
  datanode -listen ADDR -master ADDR [-status ADDR] [-profile] [-gossip]
                                               serve a datanode
  fs       -master ADDR [-trace] OP [ARGS...]  client operations:
             mkdir|create|rm|exists PATH
             ls PATH
             mv OLD NEW
             put PATH DATA
             get PATH
  olg      FILE... [-steps N] [-analyze] [-profile]
                                               run or analyze Overlog files, co-installed in order
  mr-demo  [-trackers N] [-status ADDR]        wordcount over real TCP sockets
  repl                                         interactive Overlog shell
  rules    [name]                              list the shipped rule sets, or print one
`)
}

func waitForInterrupt(what string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	fmt.Printf("%s running; ctrl-c to stop\n", what)
	<-ch
}

func runMaster(args []string) error {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "address to serve (also the node's Overlog address)")
	repl := fs.Int("replication", 3, "chunk replication factor")
	restore := fs.String("restore", "", "checkpoint file to restore the catalog from")
	ckptPath := fs.String("checkpoint", "", "write periodic checkpoints to this file")
	ckptEvery := fs.Duration("checkpoint-every", 30*time.Second, "checkpoint period")
	status := fs.String("status", "", "serve /metrics and /debug endpoints at this address")
	profile := fs.Bool("profile", false, "collect per-rule wall time from boot (see /debug/profile)")
	gossip := fs.Bool("gossip", false, "run SWIM membership; datanodes that gossip feed the liveness relations without static registration")
	gossipSeeds := fs.String("gossip-seeds", "", "comma-separated peer master addresses to seed the membership view")
	fs.Parse(args)
	cfg := boomfs.DefaultConfig()
	cfg.ReplicationFactor = *repl
	srv, err := rtfs.StartMasterFrom(*listen, cfg, *restore)
	if err != nil {
		return err
	}
	defer srv.Close()
	enableProfiling(srv, *profile)
	if err := startGossip(srv, *gossip, *gossipSeeds, nil); err != nil {
		return err
	}
	if err := serveStatus(srv, *status); err != nil {
		return err
	}
	if *ckptPath != "" {
		ticker := time.NewTicker(*ckptEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if err := srv.Checkpoint(*ckptPath); err != nil {
					fmt.Fprintf(os.Stderr, "boom: checkpoint: %v\n", err)
				}
			}
		}()
	}
	waitForInterrupt("boom-fs master at " + *listen)
	if *ckptPath != "" {
		return srv.Checkpoint(*ckptPath)
	}
	return nil
}

func runDataNode(args []string) error {
	fs := flag.NewFlagSet("datanode", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7071", "address to serve")
	master := fs.String("master", "127.0.0.1:7070", "master address")
	status := fs.String("status", "", "serve /metrics and /debug endpoints at this address")
	profile := fs.Bool("profile", false, "collect per-rule wall time from boot (see /debug/profile)")
	gossip := fs.Bool("gossip", false, "run SWIM membership; discovers master replicas and carries heartbeat liveness")
	gossipSeeds := fs.String("gossip-seeds", "", "comma-separated master addresses to seed the view (default: -master)")
	fs.Parse(args)
	srv, err := rtfs.StartDataNode(*listen, *master, boomfs.DefaultConfig())
	if err != nil {
		return err
	}
	defer srv.Close()
	enableProfiling(srv, *profile)
	if err := startGossip(srv, *gossip, *gossipSeeds, []string{*master}); err != nil {
		return err
	}
	if err := serveStatus(srv, *status); err != nil {
		return err
	}
	waitForInterrupt(fmt.Sprintf("boom-fs datanode at %s (master %s)", *listen, *master))
	return nil
}

// startGossip installs the membership rules when -gossip is set. Seeds are
// the defaults (the datanode's -master address; masters start with an
// empty view and learn peers from whoever probes them) plus whatever
// -gossip-seeds lists — all seeds are assumed to be master replicas,
// since those are the well-known contact points of an FS cluster.
func startGossip(srv *rtfs.Server, enabled bool, seedList string, defaults []string) error {
	if !enabled {
		return nil
	}
	seeds := append([]string{}, defaults...)
	if seedList != "" {
		for _, s := range strings.Split(seedList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
	}
	roles := make(map[string]string, len(seeds))
	for _, s := range seeds {
		roles[s] = "master"
	}
	err := srv.StartGossip(membership.Config{Seeds: seeds, SeedRoles: roles})
	if err == nil {
		fmt.Printf("gossip membership on (view at /debug/tables?table=member); seeds: %v\n", seeds)
	}
	return err
}

// serveStatus starts a node's observability endpoint when requested,
// and with it the metric sweep that mirrors the node's own registry
// series into sys::metric tuples — the relations SLO rules judge.
func serveStatus(srv *rtfs.Server, addr string) error {
	if addr == "" {
		return nil
	}
	if err := srv.ServeStatus(addr); err != nil {
		return err
	}
	srv.StartMetricSweep(1000, "boom")
	fmt.Printf("status endpoints at %s/metrics /healthz /debug/{tables,rules,catalog,trace,spans,prov,profile,transport,pprof}\n",
		srv.Status.URL())
	return nil
}

// enableProfiling turns the per-rule fixpoint profiler on before the
// step loop starts, so /debug/profile covers the node's whole life.
// Capture and profiling can also be toggled later at runtime via
// /debug/prov?watch= and /debug/profile?enable=1.
func enableProfiling(srv *rtfs.Server, on bool) {
	if !on {
		return
	}
	srv.Node.Runtime(func(rt *overlog.Runtime) { rt.SetProfiling(true) })
}

func runFS(args []string) error {
	fs := flag.NewFlagSet("fs", flag.ExitOnError)
	master := fs.String("master", "127.0.0.1:7070", "master address")
	listen := fs.String("listen", "127.0.0.1:0", "client callback address")
	timeout := fs.Duration("timeout", 15*time.Second, "operation timeout")
	traceFlag := fs.Bool("trace", false, "print the op's spans from the client's event ring; its trace ID works with any node's /debug/trace?id=")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) < 1 {
		return fmt.Errorf("fs: missing operation")
	}
	arity := map[string]int{"mkdir": 1, "create": 1, "rm": 1, "exists": 1, "ls": 1, "get": 1, "mv": 2, "put": 2}
	if n, ok := arity[rest[0]]; !ok {
		return fmt.Errorf("fs: unknown operation %q", rest[0])
	} else if len(rest) <= n {
		return fmt.Errorf("fs %s: missing arguments", rest[0])
	}
	addr := *listen
	if addr == "127.0.0.1:0" {
		// The node must know its own dialable address; pick a port.
		l, err := pickPort()
		if err != nil {
			return err
		}
		addr = l
	}
	cl, err := rtfs.NewClient(addr, *master, *timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	if *traceFlag {
		defer func() {
			fmt.Fprintln(os.Stderr, "trace spans (query any node's /debug/trace?id=<trace_id>):")
			for _, sp := range cl.Tracer.Spans() {
				if sp.TraceID != "" {
					fmt.Fprintf(os.Stderr, "  %s\n", sp)
				}
			}
		}()
	}

	a := rest[1:]
	switch rest[0] {
	case "mkdir":
		return cl.Mkdir(a[0])
	case "create":
		return cl.Create(a[0])
	case "rm":
		return cl.Rm(a[0])
	case "mv":
		return cl.Mv(a[0], a[1])
	case "put":
		return cl.WriteFile(a[0], a[1])
	case "exists":
		ok, err := cl.Exists(a[0])
		if err == nil {
			fmt.Println(ok)
		}
		return err
	case "ls":
		names, err := cl.Ls(a[0])
		for _, n := range names {
			fmt.Println(n)
		}
		return err
	}
	data, err := cl.ReadFile(a[0])
	if err == nil {
		fmt.Println(data)
	}
	return err
}

// pickPort reserves an ephemeral localhost port for the client's
// callback listener (the node must know its dialable address up front,
// since it doubles as the Overlog location).
func pickPort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func runMRDemo(args []string) error {
	fs := flag.NewFlagSet("mr-demo", flag.ExitOnError)
	trackers := fs.Int("trackers", 3, "task trackers to start")
	policy := fs.String("policy", "fifo", "scheduling policy: fifo, late, fair")
	status := fs.String("status", "", "serve the jobtracker's status endpoint at this address (trackers pick ephemeral ports)")
	fs.Parse(args)

	var pol boommr.Policy
	switch *policy {
	case "late":
		pol = boommr.LATE
	case "fair":
		pol = boommr.FAIR
	case "fifo":
		pol = boommr.FIFO
	default:
		return fmt.Errorf("mr-demo: unknown policy %q", *policy)
	}
	jtAddr, err := pickPort()
	if err != nil {
		return err
	}
	var ttAddrs []string
	for i := 0; i < *trackers; i++ {
		a, err := pickPort()
		if err != nil {
			return err
		}
		ttAddrs = append(ttAddrs, a)
	}
	cfg := boommr.DefaultMRConfig()
	cfg.HeartbeatMS, cfg.SchedTickMS, cfg.TrackerTTL = 100, 50, 600
	cfg.MapBaseMS, cfg.RedBaseMS, cfg.ProgressMS = 100, 150, 100
	cluster, err := rtmr.Start(jtAddr, ttAddrs, pol, cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Printf("jobtracker %s (%s policy), %d trackers on real TCP\n", jtAddr, pol, *trackers)
	if *status != "" {
		urls, err := cluster.ServeStatus(*status)
		if err != nil {
			return err
		}
		for i, u := range urls {
			role := "tasktracker"
			if i == 0 {
				role = "jobtracker"
			}
			fmt.Printf("status %-11s %s/metrics\n", role, u)
		}
	}

	splits := workload.Corpus(1, 2**trackers, 8<<10)
	job := boommr.NewJob(cluster.NewJobID(), splits, 2,
		boommr.WordCountMap, boommr.WordCountReduce)
	cluster.Submit(job)
	fmt.Printf("submitted wordcount: %d maps, %d reduces\n", job.NumMap(), job.NumRed)
	start := time.Now()
	done, err := cluster.Wait(job.ID, 2*time.Minute)
	if err != nil || !done {
		return fmt.Errorf("job did not finish: %v", err)
	}
	fmt.Printf("job finished in %.1fs wall; %d distinct words\n",
		time.Since(start).Seconds(), len(job.Output()))
	fmt.Printf("  the=%s cloud=%s paxos=%s\n",
		job.Output()["the"], job.Output()["cloud"], job.Output()["paxos"])
	return nil
}

func runRules(args []string) error {
	for _, p := range programs.All() {
		switch {
		case len(args) == 0:
			fmt.Println(p.Name)
		case p.Name == args[0]:
			fmt.Print(p.Src)
			return nil
		}
	}
	if len(args) > 0 {
		return fmt.Errorf("rules: unknown rule set %q", args[0])
	}
	return nil
}

func runRepl(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("repl: takes no arguments")
	}
	fmt.Println("Overlog shell — .help for commands, .quit to leave")
	return repl.New(os.Stdout).Run(os.Stdin)
}

func runOlg(args []string) error {
	fs := flag.NewFlagSet("olg", flag.ExitOnError)
	steps := fs.Int("steps", 1, "timesteps to execute")
	dump := fs.Bool("dump", true, "dump table contents after the run")
	analyze := fs.Bool("analyze", false, "print the CALM monotonicity analysis and plans instead of running")
	profile := fs.Bool("profile", false, "print the per-rule fixpoint profile after the run")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("olg: missing program file")
	}
	rt := overlog.NewRuntime("local")
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		fmt.Println(ev)
	})
	var progs []*overlog.Program
	for _, file := range fs.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		prog, err := overlog.Parse(string(src))
		if err != nil {
			return err
		}
		if err := rt.Install(prog); err != nil {
			return err
		}
		progs = append(progs, prog)
	}
	if *analyze {
		fmt.Print(analysis.CALM(progs))
		fmt.Println("\nstrata:")
		fmt.Print(rt.ExplainAll())
		return nil
	}
	rt.SetProfiling(*profile)
	for i := 0; i < *steps; i++ {
		out, err := rt.Step(int64(i+1), nil)
		if err != nil {
			return err
		}
		for _, env := range out {
			fmt.Printf("[send -> %s] %s\n", env.To, env.Tuple)
		}
	}
	if *profile {
		fmt.Printf("%-24s %5s %10s %10s %10s %10s %12s\n", "rule", "strat", "evals", "alt_evals", "fires", "retracted", "wall")
		for _, p := range rt.RuleProfiles() {
			fmt.Printf("%-24s %5d %10d %10d %10d %10d %12s\n",
				p.Rule, p.Stratum, p.Evals, p.AltEvals, p.Fires, p.Retracted, time.Duration(p.WallNS))
		}
		for _, s := range rt.StratumProfiles() {
			fmt.Printf("stratum %d: steps=%d iters=%d max=%d\n", s.Stratum, s.Steps, s.Iters, s.Max)
		}
	}
	if *dump {
		catalog := overlog.CatalogRelations()
		for _, name := range rt.TableNames() {
			if slices.Contains(catalog, name) {
				continue
			}
			tbl := rt.Table(name)
			if tbl.Len() == 0 {
				continue
			}
			fmt.Printf("-- %s (%d tuples)\n%s\n", name, tbl.Len(), tbl.Dump())
		}
	}
	return nil
}
