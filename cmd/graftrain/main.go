// Command graftrain runs GRAF's offline path — Algorithm 1 search-space
// reduction, state-aware sample collection, and latency-model training —
// and persists the trained model for grafd or library use.
//
// Usage:
//
//	graftrain -app boutique -o boutique.graf
//	graftrain -app social -samples 20000 -iters 8000 -o social.graf
//
// The model covers total frontend rates of 40–320 req/s, with samples
// labelled by the calibrated analytic measurer.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graf"
)

func main() {
	appName := flag.String("app", "boutique", "builtin application (online-boutique | social-network | robot-shop | bookinfo | chain-N; legacy short names accepted)")
	out := flag.String("o", "model.graf", "output path for the trained model")
	sloMS := flag.Int("slo", 250, "latency SLO in milliseconds")
	samples := flag.Int("samples", 4000, "training samples to collect")
	iters := flag.Int("iters", 1600, "training iterations")
	batch := flag.Int("batch", 128, "batch size")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	a, err := graf.AppByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("training GRAF latency model for %s: %d samples, %d iterations (batch %d)\n",
		a.Name, *samples, *iters, *batch)
	start := time.Now()
	tr := graf.Train(a, graf.TrainOptions{
		SLO:        time.Duration(*sloMS) * time.Millisecond,
		MinRate:    40,
		MaxRate:    320,
		Samples:    *samples,
		Iterations: *iters,
		Batch:      *batch,
		Seed:       *seed,
	})
	fmt.Printf("trained in %.1fs\n", time.Since(start).Seconds())
	for i, name := range a.ServiceNames() {
		fmt.Printf("  %-16s search space [%4.0f, %4.0f] mc\n", name, tr.Bounds.Lo[i], tr.Bounds.Hi[i])
	}
	if err := tr.Save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "save: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("model written to %s\n", *out)
}
