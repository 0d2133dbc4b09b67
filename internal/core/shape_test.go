package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestNoFunctionOutgrowsTheKernel keeps the decision kernel from growing
// back into one function: no non-test function in this package may exceed
// 110 lines (solveV1, the longest, is a single descent loop kept verbatim;
// the live solver is seven functions of at most 55), and the two
// that once held every transition by hand — 408 and 144 lines — stay short
// enough to read as a list of calls.
func TestNoFunctionOutgrowsTheKernel(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	limits := map[string]int{"Step": 80, "ApplyAuditTail": 80}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				limit, ok := limits[fn.Name.Name]
				if !ok {
					limit = 110
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				if n := end.Line - start.Line + 1; n > limit {
					t.Errorf("%s:%d: %s is %d lines, limit %d", start.Filename, start.Line, fn.Name.Name, n, limit)
				}
			}
		}
	}
}
