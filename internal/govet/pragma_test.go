package govet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pragma_case.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// A reasonless allow cannot be expressed in a // want fixture (the
// want comment itself would become the reason), so it is pinned here.
func TestAllowWithoutReason(t *testing.T) {
	fset, files := parseOne(t, `package p

//boomvet:allow(walltime)
var x = 1
`)
	idx := buildPragmaIndex(fset, files)
	ds := idx.lints("p")
	if len(ds) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(ds), ds)
	}
	if !strings.Contains(ds[0].Msg, "has no reason") {
		t.Fatalf("finding %q does not mention the missing reason", ds[0].Msg)
	}
}

// A trailing pragma suppresses its own line; a standalone pragma
// suppresses the next line.
func TestAllowLineTargets(t *testing.T) {
	fset, files := parseOne(t, `package p

var a = 1 //boomvet:allow(walltime) trailing form

//boomvet:allow(seedrand) standalone form
var b = 2
`)
	idx := buildPragmaIndex(fset, files)
	if got := len(idx.allows); got != 2 {
		t.Fatalf("got %d pragmas, want 2", got)
	}
	if !idx.allow("walltime", "pragma_case.go", 3) {
		t.Error("trailing pragma does not cover its own line")
	}
	if !idx.allow("seedrand", "pragma_case.go", 6) {
		t.Error("standalone pragma does not cover the following line")
	}
	if ds := idx.lints("p"); len(ds) != 0 {
		t.Fatalf("consumed pragmas still lint: %v", ds)
	}
}

func TestAllowWrongCheckDoesNotSuppress(t *testing.T) {
	fset, files := parseOne(t, `package p

var a = 1 //boomvet:allow(walltime) wrong check for this finding
`)
	idx := buildPragmaIndex(fset, files)
	if idx.allow("seedrand", "pragma_case.go", 3) {
		t.Error("allow(walltime) suppressed a seedrand finding")
	}
}

// TestEvaluatorAndSimSpawnNothing holds internal/overlog and
// internal/sim goroutine-free: evaluation and sim stepping are serial
// (DESIGN.md §16), so neither package may contain a `go` statement,
// and neither may waive one — the gospawn pass alone would let a
// worker pool back in behind an allow.
func TestEvaluatorAndSimSpawnNothing(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal/overlog", "internal/sim"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files parsed", dir)
		}
		for _, a := range buildPragmaIndex(fset, files).allows {
			if a.check == "gospawn" {
				t.Errorf("%s: gospawn waiver; %s stays goroutine-free", fset.Position(a.pos), dir)
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement; %s stays goroutine-free", fset.Position(g.Pos()), dir)
				}
				return true
			})
		}
	}
}
