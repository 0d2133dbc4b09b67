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

// TestDriversStayShort keeps the drill driver from growing back into the
// commands: cmd/grafrouter/main.go was 867 lines around a 484-line run() that
// only CI's bash drills ever executed. It stays a flag table — 200 lines —
// and no non-test function in any command or in drill.go outgrows the
// kernel's limit (internal/core's TestNoFunctionOutgrowsTheKernel).
func TestDriversStayShort(t *testing.T) {
	fset := token.NewFileSet()
	files := []string{"drill.go"}
	err := filepath.WalkDir("../../cmd", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := fset.File(file.Pos()).LineCount(); n > 200 && filepath.ToSlash(path) == "../../cmd/grafrouter/main.go" {
			t.Errorf("%s is %d lines, limit 200", path, n)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			if n := end.Line - start.Line + 1; n > 110 {
				t.Errorf("%s:%d: %s is %d lines, limit 110", path, start.Line, fn.Name.Name, n)
			}
		}
	}
}
