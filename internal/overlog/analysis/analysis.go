// Package analysis implements boomlint: whole-program static analysis
// over parsed Overlog programs. Where the compiler rejects hard errors
// (arity, safety, stratification), this package finds the silent bug
// classes — dead rules, write-only tables, singleton variables,
// cross-rule type conflicts, events persisted without a guard, un-acked
// remote sends — and reports them as structured diagnostics that can be
// rendered as text, JSON, or materialized into the sys::lint relation
// (the paper's metaprogramming story: the program analyzing itself).
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
//	                                 vote is ordered; see coord.go)
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlog"
)

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
	// consumed externally. Used when linting a single node's catalog,
	// where the peers that complete each protocol are not visible.
	AssumeExternalEvents bool
	// NoLabelCheck suppresses the duplicate-label pass. Run sets it
	// when analyzing a multi-role union, where labels only collide
	// within a co-installed group; it then checks each group itself.
	NoLabelCheck bool
}

func (o *Options) feed(t string) bool   { return o.Feeds[t] }
func (o *Options) export(t string) bool { return o.Exports[t] }

// withPragmas returns a copy of o extended with the //lint: pragmas
// carried by the programs.
func (o Options) withPragmas(progs []*overlog.Program) Options {
	out := Options{
		Feeds:                cloneSet(o.Feeds),
		Exports:              cloneSet(o.Exports),
		Ignore:               cloneSet(o.Ignore),
		AssumeExternalEvents: o.AssumeExternalEvents,
		NoLabelCheck:         o.NoLabelCheck,
	}
	for _, p := range progs {
		for _, pr := range p.Pragmas {
			switch pr.Key {
			case "feed":
				for _, t := range pr.Args {
					out.Feeds[t] = true
				}
			case "export":
				for _, t := range pr.Args {
					out.Exports[t] = true
				}
			case "ignore":
				for _, c := range pr.Args {
					out.Ignore[c] = true
				}
			}
		}
	}
	return out
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
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

// Analyze runs every pass over a set of programs linted as one unit.
func Analyze(unit string, progs []*overlog.Program, opts Options) []Diagnostic {
	opts = opts.withPragmas(progs)
	m := buildModel(unit, progs, opts)
	var ds []Diagnostic
	ds = append(ds, dataflowLints(m)...)
	if !opts.NoLabelCheck {
		// A bare Analyze call sees one co-installed program set (a live
		// catalog, a set of files), so labels must be unique across it.
		ds = append(ds, duplicateLabels(unit, progs)...)
	}
	ds = append(ds, typeLints(m)...)
	ds = append(ds, varLints(m)...)
	ds = append(ds, protocolLints(m)...)
	ds = append(ds, coordLints(m)...)
	out := ds[:0]
	for _, d := range ds {
		if !opts.Ignore[d.Code] {
			out = append(out, d)
		}
	}
	Sort(out)
	return out
}

// AnalyzeSource parses each source text and lints them together as one
// unit. Parse failures become diagnostics rather than errors so that a
// CLI run over many files reports everything it can.
func AnalyzeSource(unit string, sources []string, opts Options) []Diagnostic {
	var progs []*overlog.Program
	var ds []Diagnostic
	for i, src := range sources {
		p, err := overlog.Parse(src)
		if err != nil {
			ds = append(ds, syntaxDiag(unit, fmt.Sprintf("source#%d", i+1), err))
			continue
		}
		progs = append(progs, p)
	}
	ds = append(ds, Analyze(unit, progs, opts)...)
	Sort(ds)
	return ds
}

// InstallCheck runs the compiler's semantic checks (declared tables,
// arity, safety, stratification) by installing each group of sources
// into a scratch runtime. A group is the set of programs co-installed
// on one node role; groups are checked independently because rules from
// different roles may not be co-installable (and never are in
// production).
func InstallCheck(unit string, groups map[string][]string) []Diagnostic {
	var ds []Diagnostic
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rt := overlog.NewRuntime("lint:" + name)
		for _, src := range groups[name] {
			if err := rt.InstallSource(src); err != nil {
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
