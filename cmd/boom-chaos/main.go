// Command boom-chaos runs the fault-injection scenarios over a sweep
// of seeds. Each seed derives a fault schedule (timed kills, restarts,
// partitions, loss bursts); the same schedule drives either driver:
//
//	-transport sim   the deterministic simulator — runs replay
//	                 bit-for-bit, violating schedules shrink to
//	                 1-minimal counterexamples
//	-transport tcp   real localhost sockets via the live harness —
//	                 the production transport (bounded send queues,
//	                 dial backoff, gob framing) under the same faults,
//	                 on a compressed wall clock
//
// On a violation the run's invariant findings and the tail of the
// cross-node event ring are printed, the schedule is greedily
// shrunk to a 1-minimal fault sequence that still breaks the
// invariant, and the process exits 1 — so `make chaos` works as a CI
// gate. The fs-weak scenario exists to prove the harness can fail:
// replication factor 1 plus datanode crashes must violate durability.
//
// Schedules are data: -schedule file.json replays a saved JSON fault
// plan (see chaos.SaveSchedule) instead of deriving one per seed —
// against either transport.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/chaos/live"
)

func scenarioNames(reg []chaos.Scenario) string {
	var names []string
	for _, sc := range reg {
		names = append(names, sc.Name)
	}
	return strings.Join(names, "|")
}

func main() {
	scenario := flag.String("scenario", "all",
		"scenario to run, or all (fs-weak is the self-test and is excluded from all)")
	transport := flag.String("transport", "sim",
		"driver: sim (virtual clock, deterministic) or tcp (real sockets, compressed time)")
	schedFile := flag.String("schedule", "",
		"JSON schedule file replayed for every seed instead of the seed-derived plan")
	seeds := flag.Int("seeds", 5, "number of consecutive seeds to sweep")
	seed := flag.Int64("seed", 1, "first seed of the sweep")
	shrink := flag.Bool("shrink", true, "shrink violating schedules to minimal fault sequences")
	tail := flag.Int("tail", 30, "event-ring entries to print per violating run")
	verbose := flag.Bool("v", false, "print each seed's fault schedule even when the run is clean")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: boom-chaos [flags]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var registry []chaos.Scenario
	switch *transport {
	case "sim":
		registry = chaos.Registry()
	case "tcp":
		registry = live.Registry()
	default:
		fmt.Fprintf(os.Stderr, "boom-chaos: unknown transport %q (want sim|tcp)\n", *transport)
		os.Exit(2)
	}

	var picked []chaos.Scenario
	for _, sc := range registry {
		if sc.Name == *scenario || (*scenario == "all" && sc.Name != "fs-weak") {
			picked = append(picked, sc)
		}
	}
	if len(picked) == 0 {
		fmt.Fprintf(os.Stderr, "boom-chaos: unknown scenario %q for transport %s (want %s|all)\n",
			*scenario, *transport, scenarioNames(registry))
		os.Exit(2)
	}

	if *schedFile != "" {
		fixed, err := chaos.LoadSchedule(*schedFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boom-chaos: %v\n", err)
			os.Exit(2)
		}
		for i := range picked {
			picked[i].Schedule = func(int64) chaos.Schedule { return fixed }
		}
	}

	failed := false
	for _, sc := range picked {
		fmt.Printf("== scenario %s (%s): %d seed(s) from %d ==\n", sc.Name, *transport, *seeds, *seed)
		for _, res := range chaos.Sweep(sc, chaos.Seeds(*seed, *seeds), *shrink) {
			switch {
			case res.Outcome.Err != nil:
				failed = true
				fmt.Printf("  seed %d: RUN ERROR: %v\n", res.Seed, res.Outcome.Err)
			case res.Outcome.Violated():
				failed = true
				fmt.Printf("  seed %d: VIOLATED (%d-action schedule)\n", res.Seed, len(res.Schedule))
				fmt.Print(indent(chaos.Report(res.Outcome.Violations, res.Outcome.Tracer, *tail), "    "))
				if res.Shrunk != nil {
					fmt.Printf("    shrunk to %d action(s):\n%s", len(res.Shrunk),
						indent(res.Shrunk.String(), "      "))
					if res.ShrunkOutcome != nil && res.ShrunkOutcome.Provenance != "" {
						fmt.Printf("    first violation's provenance (minimal schedule):\n%s",
							indent(res.ShrunkOutcome.Provenance, "      "))
					}
				} else if res.Outcome.Provenance != "" {
					fmt.Printf("    first violation's provenance:\n%s",
						indent(res.Outcome.Provenance, "    "))
				}
			default:
				fmt.Printf("  seed %d: ok (%d-action schedule)\n", res.Seed, len(res.Schedule))
				if *verbose && len(res.Schedule) > 0 {
					fmt.Print(indent(res.Schedule.String(), "    "))
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func indent(s, prefix string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString(prefix + line + "\n")
	}
	return b.String()
}
