// Package govet implements boomvet: static analysis of the Go runtime
// itself, enforcing the operational contracts the codebase relies on
// but the compiler cannot check. Where boomlint analyzes the Overlog
// layer (rules as data), boomvet analyzes the layer underneath it —
// the deterministic simulator, the evaluator, and their hot paths —
// for the invariants earlier PRs established:
//
//   - determinism: no wall-clock reads, unseeded randomness, unordered
//     map iteration escaping into ordered output, or goroutine
//     spawns, inside the packages that must replay bit-identically
//     (walltime, seedrand, maporder, gospawn passes);
//   - ownership: the clone-on-store tuple contract — a Tuple crossing
//     a retention boundary (struct field, package var, storage) must
//     be cloned first, because callers pass reusable scratch buffers
//     (ownership pass);
//   - allocation discipline: functions annotated //boomvet:noalloc
//     must not contain allocation-shaped constructs — the static twin
//     of the alloc-guard tests (noalloc pass).
//
// Escape hatches are explicit and themselves linted: a finding is
// suppressed by a same-line or preceding-line comment
//
//	//boomvet:allow(<check>) <reason>
//
// and an allow that suppresses nothing is reported as stale, so
// suppressions cannot outlive the code they excused (pragma pass).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer/Pass/Diagnostic, analysistest-style golden packages under
// testdata/src) but is built on the standard library only — the build
// environment is hermetic, so packages are type-checked with
// go/types using the source importer for the standard library and an
// in-module resolver for repro/... imports (see load.go).
package govet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity orders findings; the CLI gate compares against it.
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

// Diagnostic is one machine-readable boomvet finding.
type Diagnostic struct {
	Check    string   `json:"check"`
	Severity Severity `json:"-"`
	Sev      string   `json:"severity"`
	Package  string   `json:"package"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col,omitempty"`
	Msg      string   `json:"msg"`
}

// String renders the diagnostic in the classic file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s] %s", d.File, d.Line, d.Col, d.Severity, d.Check, d.Msg)
}

// Analyzer is one boomvet pass.
type Analyzer struct {
	Name string
	Doc  string
	// Scope reports whether the pass applies to a package import path.
	// A nil Scope applies everywhere. The fixture runner bypasses Scope
	// (fixtures live under synthetic paths).
	Scope func(pkgPath string) bool
	Run   func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	pragmas *pragmaIndex
	out     *[]Diagnostic
}

// Reportf records a finding at pos unless a //boomvet:allow pragma for
// this pass covers the line (in which case the pragma is marked used).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.pragmas != nil && p.pragmas.allow(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.out = append(*p.out, finish(Diagnostic{
		Check:   p.Analyzer.Name,
		Package: p.PkgPath,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Msg:     fmt.Sprintf(format, args...),
	}))
}

// checkSeverity fixes each pass's severity. Every invariant pass is an
// error: the tree must be clean (or explicitly annotated) to merge.
var checkSeverity = map[string]Severity{
	"walltime":  SevError,
	"seedrand":  SevError,
	"maporder":  SevError,
	"gospawn":   SevError,
	"ownership": SevError,
	"noalloc":   SevError,
	"pragma":    SevError,
}

func finish(d Diagnostic) Diagnostic {
	d.Severity = checkSeverity[d.Check]
	d.Sev = d.Severity.String()
	return d
}

// Analyzers returns every pass in its canonical run order. The pragma
// staleness pass is not listed: the runner appends it after all others
// so that it sees which allows were consumed.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		SeedrandAnalyzer,
		GospawnAnalyzer,
		MaporderAnalyzer,
		OwnershipAnalyzer,
		NoallocAnalyzer,
	}
}

// CheckNames returns every known check name, sorted (for docs, the
// pragma validator, and tests).
func CheckNames() []string {
	out := make([]string, 0, len(checkSeverity))
	for c := range checkSeverity {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func knownCheck(name string) bool {
	_, ok := checkSeverity[name]
	return ok
}

// RunAll runs every scoped analyzer over each package, then the pragma
// staleness pass, and returns the findings sorted.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var ds []Diagnostic
	for _, pkg := range pkgs {
		idx := buildPragmaIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			a.Run(&Pass{
				Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
				Pkg: pkg.Types, PkgPath: pkg.PkgPath, TypesInfo: pkg.Info,
				pragmas: idx, out: &ds,
			})
		}
		ds = append(ds, idx.lints(pkg.PkgPath)...)
	}
	Sort(ds)
	return ds
}

// Sort orders diagnostics by file, line, then check, so output is
// stable across runs.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// MaxSeverity returns the highest severity present (SevInfo when
// empty, ok=false when there are no diagnostics at all).
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
