package main

import "testing"

func TestDepth(t *testing.T) {
	if args := []string{"-depth=2"}; len(args) != 1 {
		t.Fatal(args)
	}
}
