// Command grafbench regenerates the paper's tables and figures (DESIGN.md's
// experiment index, bench.Experiments) and prints them as text tables. It
// exits 1 after printing if any experiment it ran broke a floor.
//
// Usage:
//
//	grafbench                 # run every experiment at the standard scale
//	grafbench -exp fig14      # run one experiment
//	grafbench -scale quick    # quick | standard | full
//	grafbench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"graf/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (default: all)")
	scaleName := flag.String("scale", "standard", "quick | standard | full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		var ids []string
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	scale, err := bench.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ran, failed := false, false
	for _, e := range bench.Experiments {
		if *exp != "" && *exp != e.ID {
			continue
		}
		ran = true
		start := time.Now()
		res := e.Run(scale)
		fmt.Println(res.Format())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		failed = failed || res.Err() != nil
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}
