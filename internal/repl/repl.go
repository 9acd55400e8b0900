// Package repl is an interactive Overlog shell: type declarations,
// facts and rules to install them; `?- body.` to query; dot-commands
// to step the clock, inspect tables, plans and the CALM analysis. It
// reads from any io.Reader and writes to any io.Writer, so the whole
// loop is unit-testable; cmd/boom wires it to the terminal.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// REPL wraps a runtime with an interactive loop.
type REPL struct {
	rt     *overlog.Runtime
	now    int64
	out    io.Writer
	progs  []*overlog.Program // everything installed, for .analyze
	tracer *telemetry.Tracer
	// Echo controls whether watch events stream to the output.
	Echo bool
}

// New creates a REPL around a fresh runtime named "repl".
func New(out io.Writer) *REPL {
	r := &REPL{rt: overlog.NewRuntime("repl"), out: out, Echo: true,
		tracer: telemetry.NewTracer(0)}
	telemetry.AttachTracer(r.tracer, "repl", r.rt, nil)
	r.rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if r.Echo {
			fmt.Fprintf(r.out, "  %s\n", ev)
		}
	})
	return r
}

// Runtime exposes the underlying runtime.
func (r *REPL) Runtime() *overlog.Runtime { return r.rt }

const help = `commands:
  <declarations / facts / rules>;   install program text (may span lines until ';')
  ?- body;                          run an ad-hoc query
  .step [n]                         advance the clock n timesteps (default 1)
  .dump [table]                     print one table, or all non-empty tables
  .tables                           list declared tables with sizes
  .rules                            list installed rules
  .plan <rule>                      show a rule's compiled plan
  .analyze                          CALM monotonicity analysis of installed rules
  .lint (or \lint)                  static analysis of the live catalog (sys::lint)
  .why <pattern>  (or \why)         derivation DAG for matching tuples, e.g. .why path(1, _)
  .why on [table] [cap]             enable lineage capture (default: all tables)
  .why off [table]                  disable capture; bare .why shows capture state
  .profile        (or \profile)     per-rule wall time / fires / retractions + stratum iterations
  .profile on|off                   toggle wall-clock profiling (fire counts are always on)
  .trace [id]     (or \trace)       list recorded traces, or render one as a span waterfall
  .help                             this text
  .quit                             leave
`

// Run processes input until EOF or .quit.
func (r *REPL) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Fprint(r.out, "olg> ")
		} else {
			fmt.Fprint(r.out, "...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case pending.Len() == 0 && trimmed == "":
			prompt()
			continue
		case pending.Len() == 0 && (strings.HasPrefix(trimmed, ".") || strings.HasPrefix(trimmed, `\`)):
			if quit := r.command(trimmed); quit {
				return nil
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		// Statements complete at a line ending in ';'.
		if !strings.HasSuffix(trimmed, ";") {
			prompt()
			continue
		}
		stmt := pending.String()
		pending.Reset()
		r.execute(stmt)
		prompt()
	}
	return sc.Err()
}

func (r *REPL) execute(stmt string) {
	trimmed := strings.TrimSpace(stmt)
	if strings.HasPrefix(trimmed, "?-") {
		body := strings.TrimSuffix(strings.TrimSpace(trimmed[2:]), ";")
		bindings, err := r.rt.Query(body)
		if err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return
		}
		if len(bindings) == 0 {
			fmt.Fprintln(r.out, "no.")
			return
		}
		for _, b := range bindings {
			var names []string
			for n := range b {
				names = append(names, n)
			}
			sort.Strings(names)
			if len(names) == 0 {
				fmt.Fprintln(r.out, "yes.")
				continue
			}
			parts := make([]string, len(names))
			for i, n := range names {
				parts[i] = fmt.Sprintf("%s = %s", n, b[n])
			}
			fmt.Fprintf(r.out, "  %s\n", strings.Join(parts, ", "))
		}
		fmt.Fprintf(r.out, "%d answer(s).\n", len(bindings))
		return
	}
	prog, err := overlog.Parse(stmt)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if err := r.rt.Install(prog); err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.progs = append(r.progs, prog)
	fmt.Fprintln(r.out, "ok.")
}

// command handles dot-commands; returns true on .quit.
func (r *REPL) command(line string) bool {
	fields := strings.Fields(line)
	// Accept the psql-style backslash spelling for every command.
	if strings.HasPrefix(fields[0], `\`) {
		fields[0] = "." + fields[0][1:]
	}
	switch fields[0] {
	case ".quit", ".q", ".exit":
		return true
	case ".help":
		fmt.Fprint(r.out, help)
	case ".step":
		n := 1
		if len(fields) > 1 {
			fmt.Sscanf(fields[1], "%d", &n)
		}
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			r.now++
			out, err := r.rt.Step(r.now, nil)
			if err != nil {
				fmt.Fprintf(r.out, "error: %v\n", err)
				return false
			}
			for _, env := range out {
				fmt.Fprintf(r.out, "  [send -> %s] %s\n", env.To, env.Tuple)
			}
		}
		fmt.Fprintf(r.out, "t=%d\n", r.now)
	case ".dump":
		if len(fields) > 1 {
			tbl := r.rt.Table(fields[1])
			if tbl == nil {
				fmt.Fprintf(r.out, "error: no table %q\n", fields[1])
				return false
			}
			fmt.Fprintln(r.out, tbl.Dump())
			return false
		}
		for _, name := range r.rt.TableNames() {
			if strings.HasPrefix(name, "sys::") {
				continue
			}
			tbl := r.rt.Table(name)
			if tbl.Len() == 0 {
				continue
			}
			fmt.Fprintf(r.out, "-- %s (%d)\n%s\n", name, tbl.Len(), tbl.Dump())
		}
	case ".tables":
		for _, name := range r.rt.TableNames() {
			if strings.HasPrefix(name, "sys::") {
				continue
			}
			fmt.Fprintf(r.out, "  %-24s %d tuples\n", name, r.rt.Table(name).Len())
		}
	case ".rules":
		for _, name := range r.rt.Rules() {
			fmt.Fprintf(r.out, "  %s\n", name)
		}
	case ".plan":
		if len(fields) < 2 {
			fmt.Fprintln(r.out, "usage: .plan <rule>")
			return false
		}
		out, err := r.rt.Explain(fields[1])
		if err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return false
		}
		fmt.Fprint(r.out, out)
	case ".analyze":
		merged := &overlog.Program{}
		for _, p := range r.progs {
			merged.Tables = append(merged.Tables, p.Tables...)
			merged.Rules = append(merged.Rules, p.Rules...)
		}
		fmt.Fprint(r.out, overlog.AnalyzeCALM(merged).Report())
		fmt.Fprintln(r.out, "strata:")
		fmt.Fprint(r.out, r.rt.ExplainAll())
	case ".lint":
		ds := analysis.SelfLint(r.rt)
		if len(ds) == 0 {
			fmt.Fprintln(r.out, "no findings.")
			return false
		}
		for _, d := range ds {
			fmt.Fprintf(r.out, "  %s\n", d.String())
		}
		fmt.Fprintf(r.out, "%d finding(s); also in sys::lint (try ?- sys::lint(C, S, P, R, Sub, L, M);).\n", len(ds))
	case ".why":
		r.why(fields[1:])
	case ".profile":
		r.profile(fields[1:])
	case ".trace":
		r.trace(fields[1:])
	default:
		fmt.Fprintf(r.out, "unknown command %s (try .help)\n", fields[0])
	}
	return false
}

// why implements .why: capture toggles and provenance queries.
func (r *REPL) why(args []string) {
	switch {
	case len(args) == 0:
		if !r.rt.ProvenanceEnabled() {
			fmt.Fprintln(r.out, "capture off. enable with: .why on [table] [cap]")
			return
		}
		for _, name := range r.rt.ProvenanceTables() {
			fmt.Fprintf(r.out, "  %-24s %d derivation(s) buffered\n", name, len(r.rt.Derivations(name)))
		}
		return
	case args[0] == "on":
		table, capN := "*", overlog.DefaultProvenanceCap
		if len(args) > 1 {
			table = args[1]
		}
		if len(args) > 2 {
			fmt.Sscanf(args[2], "%d", &capN)
		}
		r.rt.EnableProvenance(table, capN)
		fmt.Fprintf(r.out, "capturing %s (ring %d).\n", table, capN)
		return
	case args[0] == "off":
		table := "*"
		if len(args) > 1 {
			table = args[1]
		}
		r.rt.DisableProvenance(table)
		fmt.Fprintln(r.out, "ok.")
		return
	}
	pattern := strings.TrimSuffix(strings.Join(args, " "), ";")
	roots, err := provenance.WhyPattern(r.rt, pattern, provenance.Options{})
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if len(roots) == 0 {
		fmt.Fprintln(r.out, "no matching tuples.")
		return
	}
	if !r.rt.ProvenanceEnabled() {
		fmt.Fprintln(r.out, "(capture is off — derivations made before .why on are unexplained)")
	}
	fmt.Fprint(r.out, provenance.FormatAll(roots))
}

// trace implements .trace: list traces the step hook recorded (tuples
// in traced tables — telemetry.RegisterTraceColumn — grow spans as
// rules consume and re-emit them), or render one trace's span tree.
func (r *REPL) trace(args []string) {
	if len(args) == 0 {
		traces := r.tracer.Traces()
		if len(traces) == 0 {
			fmt.Fprintln(r.out, "no traces recorded (only tuples in traced tables grow spans).")
			return
		}
		fmt.Fprintf(r.out, "  %-24s %6s %6s %8s\n", "trace", "spans", "nodes", "extent")
		for _, t := range traces {
			fmt.Fprintf(r.out, "  %-24s %6d %6d %6dms\n",
				t.TraceID, t.Spans, len(t.Nodes), t.EndMS-t.StartMS)
		}
		fmt.Fprintf(r.out, "%d trace(s); .trace <id> for the waterfall.\n", len(traces))
		return
	}
	id := strings.TrimSuffix(args[0], ";")
	spans := r.tracer.ByTrace(id)
	if len(spans) == 0 {
		fmt.Fprintf(r.out, "no spans for trace %q.\n", id)
		return
	}
	fmt.Fprint(r.out, telemetry.Waterfall(telemetry.AssembleTrace(spans)))
}

// profile implements .profile: the per-rule fixpoint profiler.
func (r *REPL) profile(args []string) {
	if len(args) > 0 {
		switch args[0] {
		case "on":
			r.rt.SetProfiling(true)
			fmt.Fprintln(r.out, "profiling on.")
		case "off":
			r.rt.SetProfiling(false)
			fmt.Fprintln(r.out, "profiling off.")
		default:
			fmt.Fprintln(r.out, "usage: .profile [on|off]")
		}
		return
	}
	profiles := r.rt.RuleProfiles()
	if len(profiles) == 0 {
		fmt.Fprintln(r.out, "no rules installed.")
		return
	}
	sort.SliceStable(profiles, func(i, j int) bool {
		if profiles[i].WallNS != profiles[j].WallNS {
			return profiles[i].WallNS > profiles[j].WallNS
		}
		return profiles[i].Fires > profiles[j].Fires
	})
	if !r.rt.Profiling() {
		fmt.Fprintln(r.out, "(wall-clock profiling off — .profile on to time rules)")
	}
	fmt.Fprintf(r.out, "  %-24s %4s %10s %10s %10s %10s %12s\n", "rule", "strat", "evals", "alt_evals", "fires", "retracted", "wall")
	for _, p := range profiles {
		fmt.Fprintf(r.out, "  %-24s %4d %10d %10d %10d %10d %12s\n",
			p.Rule, p.Stratum, p.Evals, p.AltEvals, p.Fires, p.Retracted, time.Duration(p.WallNS))
	}
	strata := r.rt.StratumProfiles()
	if len(strata) == 0 {
		return
	}
	fmt.Fprintf(r.out, "  stratum iterations (buckets %s):\n", strings.Join(overlog.IterBuckets[:], " | "))
	for _, s := range strata {
		var hist []string
		for _, n := range s.Hist {
			hist = append(hist, fmt.Sprintf("%d", n))
		}
		fmt.Fprintf(r.out, "    s%-3d steps=%-6d max=%-4d [%s]\n", s.Stratum, s.Steps, s.Max, strings.Join(hist, " "))
	}
}
