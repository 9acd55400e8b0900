// Package analysis implements boomlint: whole-program static analysis
// over parsed Overlog programs. Where the compiler rejects hard errors
// (arity, safety, stratification), this package finds the silent bug
// classes — dead rules, write-only tables, singleton variables,
// cross-rule type conflicts, events persisted without a guard, un-acked
// remote sends, non-monotone consumers of async data — and reports
// them as structured diagnostics that can be rendered as text, JSON,
// or materialized into the sys::lint relation.
//
// The passes are themselves Overlog: analysis.olg is a query over the
// unit rendered as the catalog relations a runtime serves as sys::rule,
// sys::atom, ... (overlog.Model), and its finding relation holds the
// results. Only the type pass (types.go) is Go.
//
// The analysis unit is a *set* of programs linted together: a protocol
// declaration block plus every role's rules, so that a table written on
// the master and read on a datanode counts as both written and read.
// Tables that cross the Go/Overlog boundary are declared with pragma
// comments in the rule source itself:
//
//	//lint:feed request dn_write     (written by Go or external clients)
//	//lint:export resp_log read_log  (read by Go code)
//	//lint:ignore singleton-var      (suppress a lint code)
//	//lint:ordered vote per-acceptor sequencing   (network delivery into
//	                                 vote is ordered: a Blazes seal)
package analysis

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/overlog"
)

// Files holds analysis.olg for the program registry.
//
//go:embed analysis.olg
var Files embed.FS

// Source is analysis.olg, the passes as rules.
//
//go:embed analysis.olg
var Source string

// LintUnits declares the analyzer's own lint unit.
func LintUnits() []Unit {
	return []Unit{{Name: "analysis", Groups: map[string][]string{"lint": {Source}}}}
}

// Severity orders lint findings; the CLI gate compares against it.
type Severity uint8

// Severity levels, least severe first.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	}
	return "info"
}

// ParseSeverity resolves a severity name ("info", "warn"/"warning",
// "error").
func ParseSeverity(s string) (Severity, bool) {
	switch strings.ToLower(s) {
	case "info":
		return SevInfo, true
	case "warn", "warning":
		return SevWarn, true
	case "error":
		return SevError, true
	}
	return SevInfo, false
}

// Diagnostic is one machine-readable lint finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"-"`
	Sev      string   `json:"severity"` // Severity rendered for JSON
	Unit     string   `json:"unit,omitempty"`
	Units    []string `json:"units,omitempty"` // every unit reporting it, once merged (cmd/boomlint)
	Program  string   `json:"program,omitempty"`
	Rule     string   `json:"rule,omitempty"`    // rule label; empty for decl-level findings
	Subject  string   `json:"subject,omitempty"` // table or variable the finding is about
	Line     int      `json:"line"`
	Col      int      `json:"col,omitempty"`
	Msg      string   `json:"msg"`
}

// String renders the diagnostic in the classic file:line:col style.
func (d Diagnostic) String() string {
	where := d.Program
	if where == "" {
		where = d.Unit
	}
	pos := fmt.Sprintf("%s:%d", where, d.Line)
	if d.Col > 0 {
		pos += fmt.Sprintf(":%d", d.Col)
	}
	at := ""
	if d.Rule != "" {
		at = " (rule " + d.Rule + ")"
	}
	return fmt.Sprintf("%s: %s [%s] %s%s", pos, d.Severity, d.Code, d.Msg, at)
}

// Options configures an analysis run. Feeds are tables written from
// outside the rule set (Go drivers, network injection); Exports are
// tables read from outside it. Both suppress the dataflow lints that
// would otherwise flag the Go/Overlog boundary as dead code.
type Options struct {
	Feeds   map[string]bool
	Exports map[string]bool
	Ignore  map[string]bool // lint codes to drop
	// AssumeExternalEvents treats every event table as both fed and
	// exported. Used when linting a single node's catalog, where the
	// peers that complete each protocol are not visible.
	AssumeExternalEvents bool
}

// Lint codes, grouped by pass.
const (
	// dataflow
	CodeDeadRule       = "dead-rule"
	CodeWriteOnly      = "write-only-table"
	CodeNeverWritten   = "never-written"
	CodeUnreachable    = "unreachable-rule"
	CodeDuplicateLabel = "duplicate-label"
	CodeUndeclared     = "undeclared-table"
	// types
	CodeTypeConflict  = "type-conflict"
	CodeConstType     = "const-type"
	CodeCondType      = "cond-type"
	CodeRedundantKeys = "redundant-keys"
	// variables
	CodeSingletonVar  = "singleton-var"
	CodeUnusedAssign  = "unused-assign"
	CodeConfusableVar = "confusable-var"
	// distributed protocol
	CodeUnhandledRemote = "unhandled-remote"
	CodeNoAckRemote     = "no-ack-remote"
	CodeEventPersist    = "event-persist"
	CodePointOfOrder    = "point-of-order"
	CodeCoordPath       = "under-coordinated-path"
	CodeStaleOrdered    = "stale-ordered"
	// front-end failures (AnalyzeSource / InstallCheck)
	CodeParse   = "parse"
	CodeInstall = "install"
)

// codeSeverity fixes each lint code's severity.
var codeSeverity = map[string]Severity{
	CodeDeadRule:        SevWarn,
	CodeWriteOnly:       SevWarn,
	CodeNeverWritten:    SevWarn,
	CodeUnreachable:     SevWarn,
	CodeDuplicateLabel:  SevWarn,
	CodeUndeclared:      SevError,
	CodeTypeConflict:    SevError,
	CodeConstType:       SevError,
	CodeCondType:        SevError,
	CodeRedundantKeys:   SevInfo,
	CodeSingletonVar:    SevWarn,
	CodeUnusedAssign:    SevWarn,
	CodeConfusableVar:   SevWarn,
	CodeUnhandledRemote: SevWarn,
	CodeNoAckRemote:     SevInfo,
	CodeEventPersist:    SevInfo,
	CodePointOfOrder:    SevInfo,
	CodeCoordPath:       SevInfo,
	CodeStaleOrdered:    SevWarn,
	CodeParse:           SevError,
	CodeInstall:         SevError,
}

// Codes returns every known lint code sorted (for docs and tests).
func Codes() []string {
	out := make([]string, 0, len(codeSeverity))
	for c := range codeSeverity {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// rules is analysis.olg, parsed once.
var rules = sync.OnceValue(func() *overlog.Program {
	p, err := overlog.Parse(Source)
	if err != nil {
		panic("analysis.olg: " + err.Error())
	}
	return p
})

// idle holds analysis runtimes between units: analysis.olg installed
// and every table empty. Reusing one skips compiling the rules, and its
// tables keep their indexes, which then grow with a unit's facts
// instead of being built by sorting them. A sync.Pool, so that the
// collector frees them: an emptied runtime still holds a few MB of
// evaluator buffers, which a node that lints itself once should not
// keep.
var idle sync.Pool

// newRuntime installs analysis.olg on a fresh runtime.
func newRuntime() *overlog.Runtime {
	rt := overlog.NewRuntime("lint")
	if err := rt.Install(rules()); err != nil {
		panic("analysis.olg: " + err.Error())
	}
	return rt
}

// acquire takes an idle analysis runtime, or makes one.
func acquire() *overlog.Runtime {
	if rt, ok := idle.Get().(*overlog.Runtime); ok {
		return rt
	}
	return newRuntime()
}

// release empties rt and returns it to the idle pool.
func release(rt *overlog.Runtime) {
	reset(rt)
	idle.Put(rt)
}

// step advances an analysis runtime one timestep, with in as its input.
func step(rt *overlog.Runtime, in []overlog.Tuple) {
	if _, err := rt.Step(rt.NowMS()+1, in); err != nil {
		panic("analysis.olg: " + err.Error())
	}
}

// reset empties an analysis runtime for the next unit. evaluate
// steps until no next tuple is pending, so the tables are all there is.
func reset(rt *overlog.Runtime) {
	for _, name := range rt.TableNames() {
		if !strings.HasPrefix(name, "sys::") {
			rt.Table(name).Clear()
		}
	}
}

// Analyze runs every pass over a set of programs linted as one unit,
// co-installed on one runtime.
func Analyze(unit string, progs []*overlog.Program, opts Options) []Diagnostic {
	rt := acquire()
	ds := analyze(rt, unit, progs, oneGroup(progs), opts)
	release(rt)
	return ds
}

// oneGroup is the grouping of progs co-installed on one runtime.
func oneGroup(progs []*overlog.Program) [][]int {
	all := make([]int, len(progs))
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// analyze is evaluate with the //lint:ignore pragmas and
// Options.Ignore applied.
func analyze(rt *overlog.Runtime, unit string, progs []*overlog.Program, groups [][]int, opts Options) []Diagnostic {
	all, ignore := evaluate(rt, unit, progs, groups, opts)
	var ds []Diagnostic
	for _, d := range all {
		if !ignore[d.Code] {
			ds = append(ds, d)
		}
	}
	return ds
}

// evaluate runs analysis.olg over the unit on rt, an idle analysis
// runtime, and returns its finding relation and the type pass's
// findings, sorted, with the lint codes the unit ignores. Its input is
// the unit's catalog rows plus what no program says: Options' feeds,
// exports and ignores, and each co-installed group's programs, as
// indexes into progs. The first step stores the facts. Each later one stores the layer of the
// coordination pass's breadth-first taint that the step before derived
// with next, until a step derives none.
func evaluate(rt *overlog.Runtime, unit string, progs []*overlog.Program, groups [][]int, opts Options) ([]Diagnostic, map[string]bool) {
	m := overlog.NewModel(progs)
	in := m.Rows("")
	add := func(table string, vals ...overlog.Value) { in = append(in, overlog.NewTuple(table, vals...)) }
	for table, set := range map[string]map[string]bool{"feed": opts.Feeds, "export": opts.Exports, "ignore": opts.Ignore} {
		for v := range set {
			add(table, overlog.Str(v))
		}
	}
	for _, t := range m.Tables {
		if m.Decls[t].Event && opts.AssumeExternalEvents {
			add("feed", overlog.Str(t))
			add("export", overlog.Str(t))
		}
	}
	for g, ps := range groups {
		for _, p := range ps {
			add("member", overlog.Int(int64(g)), overlog.Int(int64(p)))
		}
	}
	step(rt, in)
	for rt.NextWake() >= 0 {
		step(rt, nil)
	}
	ds := typeLints(unit, m)
	for _, tp := range rt.Table("finding").Tuples() {
		v := tp.Vals
		ds = append(ds, finish(Diagnostic{
			Code: v[0].AsString(), Unit: unit, Program: v[1].AsString(), Rule: v[2].AsString(),
			Subject: v[3].AsString(), Line: int(v[4].AsInt()), Col: int(v[5].AsInt()), Msg: v[6].AsString(),
		}))
	}
	ignore := map[string]bool{}
	for _, tp := range rt.Table("ignore").Tuples() {
		ignore[tp.Vals[0].AsString()] = true
	}
	Sort(ds)
	return ds, ignore
}

// AnalyzeSource parses each source text and lints them together as one
// unit. Parse failures become diagnostics rather than errors so that a
// CLI run over many files reports everything it can.
func AnalyzeSource(unit string, sources []string, opts Options) []Diagnostic {
	progs, ds, _ := parseAll(unit, sources)
	ds = append(ds, Analyze(unit, progs, opts)...)
	Sort(ds)
	return ds
}

// parsed is one source's parse: its program and index among the
// programs that parsed, or the error.
type parsed struct {
	prog *overlog.Program
	at   int
	err  error
}

// parseAll parses each source once, returning the programs that parse,
// a diagnostic per one that does not, and every source's result.
func parseAll(unit string, sources []string) ([]*overlog.Program, []Diagnostic, map[string]parsed) {
	var progs []*overlog.Program
	var ds []Diagnostic
	results := map[string]parsed{}
	for i, src := range sources {
		p, err := overlog.Parse(src)
		results[src] = parsed{prog: p, at: len(progs), err: err}
		if err != nil {
			ds = append(ds, syntaxDiag(unit, fmt.Sprintf("source#%d", i+1), err))
			continue
		}
		progs = append(progs, p)
	}
	return progs, ds, results
}

// InstallCheck runs the compiler's semantic checks (declared tables,
// arity, safety, stratification) by installing each group of sources
// into a scratch runtime. A group is the set of programs co-installed
// on one node role; groups are checked independently because rules from
// different roles may not be co-installable (and never are in
// production).
func InstallCheck(unit string, groups map[string][]string) []Diagnostic {
	return installCheck(unit, groups, map[string]parsed{})
}

// installCheck is InstallCheck over sources parsed once: results holds
// the sources already parsed, and gains the rest.
func installCheck(unit string, groups map[string][]string, results map[string]parsed) []Diagnostic {
	var ds []Diagnostic
	for _, name := range sortedKeys(groups) {
		rt := overlog.NewRuntime("lint:" + name)
		for _, src := range groups[name] {
			r, ok := results[src]
			if !ok {
				r.prog, r.err = overlog.Parse(src)
				results[src] = r
			}
			err := r.err
			if err == nil {
				err = rt.Install(r.prog)
			}
			if err != nil {
				ds = append(ds, installDiag(unit, name, err))
			}
		}
	}
	return ds
}

func syntaxDiag(unit, prog string, err error) Diagnostic {
	d := Diagnostic{Code: CodeParse, Unit: unit, Program: prog, Msg: err.Error()}
	if se, ok := err.(*overlog.SyntaxError); ok {
		d.Line, d.Col, d.Msg = se.Line, se.Col, se.Msg
	}
	return finish(d)
}

func installDiag(unit, group string, err error) Diagnostic {
	d := Diagnostic{Code: CodeInstall, Unit: unit, Program: group, Msg: err.Error()}
	if ie, ok := err.(*overlog.InstallError); ok {
		d.Line, d.Msg = ie.Line, ie.Msg
		if ie.Program != "" {
			d.Program = ie.Program
		}
	} else if se, ok := err.(*overlog.SyntaxError); ok {
		d.Line, d.Col, d.Msg = se.Line, se.Col, se.Msg
		d.Code = CodeParse
	}
	return finish(d)
}

// finish stamps the severity implied by the code.
func finish(d Diagnostic) Diagnostic {
	d.Severity = codeSeverity[d.Code]
	d.Sev = d.Severity.String()
	return d
}

// Sort orders diagnostics most severe first, then by program, line, and
// code, so output is stable across runs.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// MaxSeverity returns the highest severity present (SevInfo when empty,
// ok=false when there are no diagnostics at all).
func MaxSeverity(ds []Diagnostic) (Severity, bool) {
	if len(ds) == 0 {
		return SevInfo, false
	}
	max := SevInfo
	for _, d := range ds {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}
