package main

import (
	"fix"
	"fix/lib"
)

func main() {
	if err := fix.Open(lib.Config{Bench: 1}); err != nil {
		panic(err)
	}
}
