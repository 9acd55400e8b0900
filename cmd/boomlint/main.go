// Command boomlint is the whole-program static analyzer for this
// repository's Overlog rule sets: dataflow lints (dead rules,
// write-only tables, undeclared feeds), schema-type inference,
// variable hygiene, and the distributed coordination surface
// (fire-and-forget protocols, unbounded event persistence, CALM
// points of order).
//
// With no arguments it lints every deployment unit of the shipped .olg
// files (internal/programs: BOOM-FS, BOOM-MR under each scheduling
// policy, Paxos, the replicated state machine over it, the replicated
// KV store), reporting a finding shared by several units once, with
// the units it appears in. With file arguments it lints those Overlog
// sources as one co-installed unit. The exit
// status is 1 when any finding reaches the -severity gate, so
// `boomlint -severity=error` works as a CI step; findings are also
// available machine-readably via -json and, on running nodes, as the
// sys::lint relation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/overlog/analysis"
	"repro/internal/programs"
)

func embeddedUnits() []analysis.Unit { return programs.LintUnits() }

// lint runs every unit and reports each (program, rule, code, subject)
// once, with the units it appears in: a program co-installed in five
// units is one finding, not five. A merged finding keeps the first
// unit's message (its code fixes the severity).
func lint(units []analysis.Unit) []analysis.Diagnostic {
	type key struct{ program, rule, code, subject string }
	at := map[key]int{}
	var out []analysis.Diagnostic
	for _, u := range units {
		for _, d := range analysis.Run(u, analysis.Options{}) {
			k := key{d.Program, d.Rule, d.Code, d.Subject}
			i, ok := at[k]
			if !ok {
				at[k] = len(out)
				d.Units, d.Unit = []string{d.Unit}, ""
				out = append(out, d)
				continue
			}
			if m := &out[i]; !slices.Contains(m.Units, d.Unit) {
				m.Units = append(m.Units, d.Unit)
			}
		}
	}
	analysis.Sort(out)
	return out
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	gate := flag.String("severity", "error",
		"exit non-zero when a finding is at or above this severity (info|warn|error|none)")
	show := flag.String("show", "warn",
		"minimum severity to print in text mode (info|warn|error); JSON always includes everything")
	unitName := flag.String("unit", "", "lint only the named embedded unit")
	listUnits := flag.Bool("units", false, "list embedded unit names and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: boomlint [flags] [file.olg ...]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listUnits {
		for _, u := range embeddedUnits() {
			fmt.Println(u.Name)
		}
		return
	}

	var minSev analysis.Severity
	gateOn := *gate != "none"
	if gateOn {
		sev, ok := analysis.ParseSeverity(*gate)
		if !ok {
			fmt.Fprintf(os.Stderr, "boomlint: unknown severity %q (want info|warn|error|none)\n", *gate)
			os.Exit(2)
		}
		minSev = sev
	}

	var units []analysis.Unit
	if files := flag.Args(); len(files) > 0 {
		srcs := make([]string, 0, len(files))
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "boomlint: %v\n", err)
				os.Exit(2)
			}
			srcs = append(srcs, string(b))
		}
		units = []analysis.Unit{{Name: "files", Groups: map[string][]string{"all": srcs}}}
	} else {
		for _, u := range embeddedUnits() {
			if *unitName == "" || u.Name == *unitName {
				units = append(units, u)
			}
		}
		if len(units) == 0 {
			fmt.Fprintf(os.Stderr, "boomlint: no embedded unit named %q (try -units)\n", *unitName)
			os.Exit(2)
		}
	}
	ds := lint(units)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if ds == nil {
			ds = []analysis.Diagnostic{}
		}
		if err := enc.Encode(ds); err != nil {
			fmt.Fprintf(os.Stderr, "boomlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		showSev, ok := analysis.ParseSeverity(*show)
		if !ok {
			fmt.Fprintf(os.Stderr, "boomlint: unknown severity %q (want info|warn|error)\n", *show)
			os.Exit(2)
		}
		hidden := 0
		for _, d := range ds {
			if d.Severity < showSev {
				hidden++
				continue
			}
			fmt.Printf("%s: %s\n", strings.Join(d.Units, ","), d.String())
		}
		if len(ds) == hidden {
			fmt.Printf("boomlint: no findings at %s or above", showSev)
		} else {
			fmt.Printf("boomlint: %d finding(s)", len(ds)-hidden)
		}
		if hidden > 0 {
			fmt.Printf(" (%d below %s hidden; use -show=info or -json)", hidden, showSev)
		}
		fmt.Println()
	}
	if max, any := analysis.MaxSeverity(ds); gateOn && any && max >= minSev {
		os.Exit(1)
	}
}
