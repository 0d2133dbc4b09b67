// Command graftrain runs GRAF's offline path — Algorithm 1 search-space
// reduction, state-aware sample collection, and latency-model training —
// and persists the trained model for grafd or library use.
//
// Usage:
//
//	graftrain -app boutique -o boutique.graf
//	graftrain -app social -samples 20000 -iters 8000 -o social.graf
//	graftrain -app boutique -sim-labels -samples 2000 -o exact.graf
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
	minRate := flag.Float64("min-rate", 40, "lowest total frontend rate covered (req/s)")
	maxRate := flag.Float64("max-rate", 320, "highest total frontend rate covered (req/s)")
	samples := flag.Int("samples", 4000, "training samples to collect")
	iters := flag.Int("iters", 1600, "training iterations")
	batch := flag.Int("batch", 128, "batch size")
	simLabels := flag.Bool("sim-labels", false, "label every sample with a discrete-event measurement (slow, exact)")
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
		SLO:             time.Duration(*sloMS) * time.Millisecond,
		MinRate:         *minRate,
		MaxRate:         *maxRate,
		Samples:         *samples,
		Iterations:      *iters,
		Batch:           *batch,
		SimulatorLabels: *simLabels,
		Seed:            *seed,
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
