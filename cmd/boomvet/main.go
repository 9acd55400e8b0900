// Command boomvet is the static analyzer for this repository's Go
// runtime, the layer boomlint cannot see: it enforces the operational
// contracts the deterministic simulator and the evaluator rely on.
//
//	walltime   no wall-clock reads in deterministic packages
//	seedrand   no math/rand global-source draws (inject seeds)
//	gospawn    no goroutines in deterministic packages
//	maporder   no map-iteration order escaping into ordered output
//	ownership  no Tuple retained across storage without Clone
//	noalloc    //boomvet:noalloc functions stay allocation-free
//	pragma     //boomvet:allow escapes are well-formed and not stale
//
// With no arguments it analyzes every package under the module
// (equivalent to ./...). The exit status is 1 when any finding
// reaches the -severity gate, so `boomvet -severity=error ./...`
// works as a CI step; findings are machine-readable via -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/govet"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	gate := flag.String("severity", "error",
		"exit non-zero when a finding is at or above this severity (info|warn|error|none)")
	listChecks := flag.Bool("checks", false, "list check names and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: boomvet [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listChecks {
		for _, c := range govet.CheckNames() {
			fmt.Println(c)
		}
		return
	}

	var minSev govet.Severity
	gateOn := *gate != "none"
	if gateOn {
		sev, ok := govet.ParseSeverity(*gate)
		if !ok {
			fmt.Fprintf(os.Stderr, "boomvet: unknown severity %q (want info|warn|error|none)\n", *gate)
			os.Exit(2)
		}
		minSev = sev
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := govet.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader := govet.NewLoader(root)
	pkgs, err := loader.Packages(flag.Args())
	if err != nil {
		fatal(err)
	}
	ds := govet.RunAll(pkgs, govet.Analyzers())

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if ds == nil {
			ds = []govet.Diagnostic{}
		}
		if err := enc.Encode(ds); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range ds {
			fmt.Println(d)
		}
		if len(ds) == 0 {
			fmt.Printf("boomvet: %d packages clean\n", len(pkgs))
		}
	}

	if gateOn {
		if max, any := govet.MaxSeverity(ds); any && max >= minSev {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "boomvet: %v\n", err)
	os.Exit(2)
}
