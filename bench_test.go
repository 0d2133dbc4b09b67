// Microbenchmarks of the hot paths. The paper's tables and figures are
// regenerated by cmd/grafbench, and internal/bench's TestExperimentFloors
// checks every experiment's floors.
package graf_test

import (
	"math/rand"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/sim"
	"graf/internal/workload"
)

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
