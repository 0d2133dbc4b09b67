// Benchmarks regenerating every table and figure of the paper (DESIGN.md
// §3), plus microbenchmarks of the hot paths.
package graf_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"graf/internal/app"
	"graf/internal/bench"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/sim"
	"graf/internal/workload"
)

// BenchmarkExperiment runs each entry of bench.Experiments as a
// sub-benchmark: the runner cmd/grafbench uses, which prints its table once
// and fails when the run broke one of its floors:
//
//	go test -run '^$' -bench 'Experiment/^fleet-rpc$' -benchtime 1x .
//
// The scale defaults to quick so the full suite stays in CI-friendly time;
// GRAF_BENCH_SCALE=standard (or full) spends more compute.
func BenchmarkExperiment(b *testing.B) {
	scale, err := bench.ParseScale(cmp.Or(os.Getenv("GRAF_BENCH_SCALE"), "quick"))
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range bench.Experiments {
		printed := false
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := e.Run(scale)
				if !printed {
					printed = true
					fmt.Println(res.Format())
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks of the hot paths ---------------------------------------

// BenchmarkSolver measures one full Eq.5 gradient descent (§3.5; the paper
// reports 3.4-6.8 s on their hardware for this step).
func BenchmarkSolver(b *testing.B) {
	a := app.OnlineBoutique()
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
	load := []float64{100, 40, 140, 120, 80, 40}
	lo := []float64{100, 100, 100, 100, 100, 100}
	hi := []float64{2000, 2000, 2000, 2000, 2000, 2000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Solve(m, load, 0.2, lo, hi, core.DefaultSolverConfig())
	}
}

// BenchmarkClusterSimulation measures discrete-event throughput: simulated
// request-seconds per wall second on Online Boutique at 100 rps.
func BenchmarkClusterSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		cl := cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
		cl.ApplyQuotas(map[string]float64{
			"frontend": 1000, "cart": 500, "currency": 750,
			"productcatalog": 1000, "recommendation": 1250, "shipping": 750,
		})
		eng.RunUntil(30)
		g := workload.NewOpenLoop(cl, workload.ConstRate(100))
		g.Start()
		eng.RunUntil(90)
		g.Stop()
		eng.Run()
	}
}

// BenchmarkAlgorithm1 measures Algorithm 1's search-space reduction with
// the analytic measurer.
func BenchmarkAlgorithm1(b *testing.B) {
	a := app.OnlineBoutique()
	for i := 0; i < b.N; i++ {
		m := core.NewAnalyticMeasurer(a, 0, int64(i))
		sc := core.NewSampleCollector(a, m, 0.25, 240)
		sc.ReduceSearchSpace()
	}
}
