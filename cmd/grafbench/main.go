// Command grafbench regenerates the paper's tables and figures (DESIGN.md's
// experiment index) and prints them as text tables.
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
	"strings"
	"time"

	"graf/internal/bench"
)

// experiments lists every experiment in run order: cheap observation
// experiments first, then grouped by the trained pipeline they share.
var experiments = []struct {
	id  string
	run func(bench.Scale) bench.Result
}{
	{"fig01", bench.Fig01InstanceCreation},
	{"fig06", bench.Fig06LatencyCurves},
	{"fig02", bench.Fig02SurgeInstances},
	{"fig03", bench.Fig03SurgeLatency},
	{"fig07", bench.Fig07CascadingEffect},
	{"tab01", bench.Tab01Hyperparameters},
	{"tab02", bench.Tab02PredictionError},
	{"fig11", bench.Fig11MPNNAblation},
	{"fig12", bench.Fig12LossHeatmap},
	{"fig13", bench.Fig13SearchSpace},
	{"fig14", bench.Fig14TotalCPU},
	{"fig15", bench.Fig15PerMSBoutique},
	{"fig16", bench.Fig16PerMSSocial},
	{"fig17", bench.Fig17SLOTargeting},
	{"fig18", bench.Fig18UserScaling},
	{"tab03", bench.Tab03Budget},
	{"fig19", bench.Fig19CostBenefit},
	{"fig20", bench.Fig20AzureReplay},
	{"fig21", bench.Fig21SurgeComparison},
	{"fig22", bench.Fig22Convergence},
	{"abl-loss", bench.AblationLoss},
	{"abl-steps", bench.AblationSteps},
	{"abl-solver", bench.AblationSolver},
	{"solver-loop", bench.SolverLoop},
	{"abl-sampler", bench.AblationSampler},
	{"abl-integer", bench.AblationInteger},
	{"abl-anomaly", bench.AblationAnomaly},
	{"abl-partition", bench.AblationPartition},
	{"scalability", bench.Scalability},
	{"chaos", bench.ChaosRobustness},
	{"recovery", bench.Recovery},
	{"drift", bench.Drift},
	{"replay", bench.ObsReplay},
	{"obs-overhead", bench.ObsOverhead},
	{"fleet-rpc", bench.FleetRPC},
	{"router-failover", bench.RouterFailover},
	{"overload", bench.Overload},
	{"slo-burn", bench.SLOBurn},
	{"trace-overhead", bench.TraceOverhead},
	{"forecast", bench.Forecast},
}

func main() {
	exp := flag.String("exp", "", "experiment id (default: all)")
	scaleName := flag.String("scale", "standard", "quick | standard | full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		ids := make([]string, len(experiments))
		for i, e := range experiments {
			ids[i] = e.id
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}

	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.Quick()
	case "standard":
		scale = bench.Standard()
	case "full":
		scale = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	ran := false
	for _, e := range experiments {
		if *exp != "" && *exp != e.id {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Println(e.run(scale).Format())
		fmt.Printf("(%s in %.1fs)\n\n", e.id, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}
