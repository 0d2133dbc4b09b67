package main

import "flag"

func main() {
	depth := flag.Int("depth", 1, "how deep")
	width := flag.Int("width", 1, "how wide")
	flag.Parse()
	_, _ = *depth, *width
}
