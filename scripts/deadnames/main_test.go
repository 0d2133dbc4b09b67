package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// The fixture module under testdata holds one declaration for each rule:
// what fails, what is only listed, and what passes (lib.Store, which
// NewStore's signature exposes, wire.Reached, which gob reads, and the flag
// -width, which a Makefile recipe sets).
func TestRules(t *testing.T) {
	var out bytes.Buffer
	failed, err := run(filepath.Join("testdata", "mod"), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := `cmd/tool/main.go:6: census: flag -depth is set only by tests
lib/lib.go:9: fix/lib.Unnamed is named by nothing
lib/lib.go:12: fix/lib.Internal is exported, but only its own package names it
lib/lib.go:17: fix/lib.Config.WriteOnly is read by no non-test code
lib/lib.go:18: census: fix/lib.Config.Tagged is written by nothing
lib/lib.go:19: census: fix/lib.Config.Bench is written only by benchmark/
lib/lib.go:19: fix/lib.Config.Bench is read by no non-test code (listed, not failed: benchmark/ names it)
`
	if got := out.String(); got != want || failed != 3 {
		t.Errorf("%d failures, report:\n%s\nwant 3 failures, report:\n%s", failed, got, want)
	}
}
