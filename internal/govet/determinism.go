package govet

import (
	"go/ast"
	"go/types"
)

// The determinism passes: walltime, seedrand, gospawn. All three share
// the same shape — a package-qualified call is forbidden inside the
// deterministic packages — so they live together.
//
// walltime: the simulator owns time. Nodes observe the virtual clock
// (Runtime.now, Cluster.now); a time.Now() read anywhere in a
// deterministic package leaks the wall clock into state that must
// replay bit-identically from a seed. Profiling/reporting wall reads
// that never feed tuples are waived with //boomvet:allow(walltime).
//
// seedrand: math/rand's package-level functions draw from the global,
// time-seeded source. Deterministic code must thread a *rand.Rand
// built from an injected seed (rand.New(rand.NewSource(seed))) — the
// constructors are allowed, everything package-level is not.
//
// gospawn: a bare `go` statement makes scheduling — and therefore any
// state it touches — racy against the deterministic step loop. No
// goroutine in internal/overlog or internal/sim: neither may even
// waive one (TestEvaluatorAndSimSpawnNothing). Elsewhere in the scope
// an allow must argue why the goroutine's effects replay identically.

// WalltimeAnalyzer flags wall-clock reads in deterministic packages.
var WalltimeAnalyzer = &Analyzer{
	Name:  "walltime",
	Doc:   "flag time.Now/Since/etc in packages that must replay deterministically",
	Scope: deterministicScope,
	Run:   runWalltime,
}

// wallFuncs are the time functions that observe or depend on the wall
// clock. Pure constructors/conversions (Duration, Unix, Date) are fine.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

func runWalltime(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkgNameOf(p, sel) == "time" && wallFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(),
					"time.%s reads the wall clock in a deterministic package; use the simulated clock (or //boomvet:allow(walltime) for profiling-only reads)",
					sel.Sel.Name)
			}
			return true
		})
	}
}

// SeedrandAnalyzer flags use of math/rand's global source.
var SeedrandAnalyzer = &Analyzer{
	Name:  "seedrand",
	Doc:   "flag math/rand package-level functions (global, time-seeded source) in deterministic packages",
	Scope: deterministicScope,
	Run:   runSeedrand,
}

// seededConstructors build an explicit source and are the sanctioned
// way to get randomness: rand.New(rand.NewSource(seed)).
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runSeedrand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := pkgPathOf(p, sel)
			if pkg != "math/rand" && pkg != "math/rand/v2" {
				return true
			}
			// Only flag function references, not type names (rand.Rand,
			// rand.Source in signatures are how seeds get injected).
			if obj := p.TypesInfo.Uses[sel.Sel]; obj != nil {
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true
				}
			}
			if seededConstructors[sel.Sel.Name] {
				return true
			}
			p.Reportf(sel.Pos(),
				"rand.%s draws from math/rand's global time-seeded source; inject a seed via rand.New(rand.NewSource(seed))",
				sel.Sel.Name)
			return true
		})
	}
}

// GospawnAnalyzer flags goroutine spawns in deterministic packages.
var GospawnAnalyzer = &Analyzer{
	Name:  "gospawn",
	Doc:   "flag `go` statements in deterministic packages",
	Scope: deterministicScope,
	Run:   runGospawn,
}

func runGospawn(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(),
					"goroutine spawned in a deterministic package: concurrency breaks bit-identical replay")
			}
			return true
		})
	}
}

// pkgNameOf resolves a selector's base to an imported package name, or
// "" when the selector is not package-qualified.
func pkgNameOf(p *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Name()
	}
	return ""
}

// pkgPathOf is pkgNameOf returning the full import path.
func pkgPathOf(p *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
