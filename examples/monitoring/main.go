// Monitoring: the metaprogramming revision live.
//
// In Overlog a program is data: the sys:: catalog relations describe
// the installed rules and tables, watches stream every tuple event to
// collectors, and invariants are rules whose head is a violation.
// This example runs a short BOOM-FS workload with full instrumentation
// and prints (a) the node's telemetry registry — the same numbers a
// live deployment serves on /metrics, (b) a per-rule execution
// profile, (c) an invariant check, and (d) a rule written *against the
// catalog itself*. Run with:
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	c := sim.NewCluster(sim.WithTelemetry(reg), sim.WithTracer(tracer))
	cfg := boomfs.DefaultConfig()

	// The cluster's telemetry option attaches step-hook metrics to every
	// node it creates; protocol-level series come from targeted watches
	// below — no watch-all needed.
	rt, err := c.AddNode("master:0")
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		log.Fatal(err)
	}
	master, err := boomfs.NewMasterOnRuntime(rt, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// (a) FS-protocol metrics on the shared registry (the step-level
	// series were attached by the cluster when the node was created).
	if err := boomfs.InstrumentMaster(reg, "master:0", rt); err != nil {
		log.Fatal(err)
	}

	// (c) a declarative invariant over the metadata catalog, written as
	// the chaos monitors write theirs: every fully-qualified path must
	// point at a file the catalog knows, and a rule derives a violation
	// row for each one that does not.
	if err := rt.InstallSource(`
		table inv_violation(Inv: string, Node: addr, T: int, Detail: string) keys(0,1,3);
		iv1 inv_violation("fqpath-has-file", Me, now(), P) :- fqpath(P, F),
		        notin file(F, _, _, _), Me := localaddr();
	`); err != nil {
		log.Fatal(err)
	}

	// (d) metaprogramming: a rule that counts the master's own rules by
	// reading the sys:: catalog.
	if err := rt.InstallSource(`
		table rule_census(Head: string, N: int) keys(0);
		meta1 rule_census(Head, count<Name>) :- sys::rule(Name, _, Head, _, _, _);
	`); err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), master.Addr, cfg); err != nil {
			log.Fatal(err)
		}
	}
	cl, err := boomfs.NewClient(c, "client:0", cfg, master.Addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Run(1100); err != nil {
		log.Fatal(err)
	}

	// Workload.
	if err := cl.Mkdir("/mon"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := cl.Create(fmt.Sprintf("/mon/f%02d", i)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cl.Ls("/mon"); err != nil {
		log.Fatal(err)
	}
	if err := cl.WriteFile("/mon/data", "some chunky bytes for the data plane"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("(a) master telemetry registry (what /metrics would serve):")
	fmt.Println(indent(firstLines(masterSamples(reg), 14)))

	fmt.Println("(b) hottest rules by derivation count:")
	fmt.Println(indent(hottestRules(rt, 8)))

	fmt.Printf("(c) invariant %q: %d violations across %d ring events\n\n",
		"fqpath-has-file", rt.Table("inv_violation").Len(), tracer.Total())

	fmt.Println("(d) rule census computed by a rule over sys::rule:")
	for _, tp := range rt.Table("rule_census").Tuples() {
		if tp.Vals[1].AsInt() >= 3 {
			fmt.Printf("    %-16s %d rules derive it\n", tp.Vals[0].AsString(), tp.Vals[1].AsInt())
		}
	}
}

// hottestRules renders the n rules with the most derivations.
func hottestRules(rt *overlog.Runtime, n int) string {
	rules := rt.RuleProfiles()
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Fires != rules[j].Fires {
			return rules[i].Fires > rules[j].Fires
		}
		return rules[i].Rule < rules[j].Rule
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s\n", "rule", "derivations")
	for _, r := range rules[:min(n, len(rules))] {
		fmt.Fprintf(&b, "%-24s %12d\n", r.Rule, r.Fires)
	}
	return b.String()
}

// masterSamples renders the master's non-bucket registry samples.
func masterSamples(reg *telemetry.Registry) string {
	var b strings.Builder
	for _, s := range reg.Snapshot() {
		if strings.Contains(s.Name, "_bucket") || !strings.Contains(s.Name, "master:0") {
			continue
		}
		fmt.Fprintf(&b, "%-56s %g\n", s.Name, s.Value)
	}
	return b.String()
}

func firstLines(s string, n int) string {
	out, count := "", 0
	for _, line := range splitLines(s) {
		out += line + "\n"
		count++
		if count == n {
			break
		}
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}
