package rpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestDriversStayShort keeps the drivers from growing back into monoliths.
// cmd/grafrouter/main.go was 867 lines around a 484-line run() that only CI's
// bash drills ever executed; it stays a flag table — 200 lines — and no
// non-test function in any command or in this package outgrows the kernel's
// limit (internal/core's TestNoFunctionOutgrowsTheKernel). The router's own
// files hold 80: their drivers only sequence pure placement decisions, RPCs
// and commits, and a driver that needs more is interleaving policy again.
func TestDriversStayShort(t *testing.T) {
	fset := token.NewFileSet()
	var files []string
	for _, root := range []string{".", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	router := map[string]bool{"router.go": true, "persist.go": true, "ring.go": true}
	for _, path := range files {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := fset.File(file.Pos()).LineCount(); n > 200 && filepath.ToSlash(path) == "../../cmd/grafrouter/main.go" {
			t.Errorf("%s is %d lines, limit 200", path, n)
		}
		limit := 110
		if router[path] {
			limit = 80
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			if n := end.Line - start.Line + 1; n > limit {
				t.Errorf("%s:%d: %s is %d lines, limit %d", path, start.Line, fn.Name.Name, n, limit)
			}
		}
	}
}
