package fleet

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestFleetNeverReadsTheWallClock pins that a fleet's decisions run on
// simulated time alone: no non-test file in this package imports "time".
func TestFleetNeverReadsTheWallClock(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if imp.Path.Value == `"time"` {
					t.Errorf("%s imports time", name)
				}
			}
		}
	}
}
