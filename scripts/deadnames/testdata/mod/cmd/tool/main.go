package main

import "flag"

func main() {
	depth := flag.Int("depth", 1, "how deep")
	flag.Parse()
	_ = *depth
}
