// Command boom-bench regenerates the paper's evaluation: it runs every
// table and figure once at its documented parameters (see
// internal/experiments.RunPaper), rewrites the generated tables in
// EXPERIMENTS.md and the behaviour golden they are checked against,
// and prints T2's wall-clock overhead, the one number that is not
// deterministic. Run it from inside the module:
//
//	go run ./cmd/boom-bench
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "boom-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := experiments.ModuleRoot()
	if err != nil {
		return err
	}
	p, err := experiments.RunPaper()
	if err != nil {
		return err
	}
	files, err := p.Files(root)
	if err != nil {
		return err
	}
	for _, name := range []string{experiments.GoldenFile, experiments.DocFile} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(files[name]), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
	}
	watch, registry := p.Monitoring.WallRatios()
	fmt.Printf("T2 wall-clock overhead vs instrumentation off: watch-all %.2fx, telemetry registry %.2fx\n",
		watch, registry)
	return nil
}
