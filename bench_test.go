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
	"graf/internal/obs"
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

// BenchmarkGNNPredict measures one forward pass of the paper-sized MPNN on
// the 6-node Online Boutique graph.
func BenchmarkGNNPredict(b *testing.B) {
	a := app.OnlineBoutique()
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
	load := []float64{100, 40, 140, 120, 80, 40}
	quota := []float64{800, 400, 500, 600, 900, 700}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(load, quota)
	}
}

// BenchmarkGNNPredictGrad measures forward + input-gradient backward, the
// unit of work inside the configuration solver's loop.
func BenchmarkGNNPredictGrad(b *testing.B) {
	a := app.OnlineBoutique()
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
	load := []float64{100, 40, 140, 120, 80, 40}
	quota := []float64{800, 400, 500, 600, 900, 700}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictGrad(load, quota)
	}
}

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

// BenchmarkTrainingIteration measures one minibatch training step at the
// paper's batch size.
func BenchmarkTrainingIteration(b *testing.B) {
	a := app.OnlineBoutique()
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
	samples := make([]gnn.Sample, 64)
	rng := rand.New(rand.NewSource(2))
	for i := range samples {
		load := make([]float64, 6)
		quota := make([]float64, 6)
		for j := range load {
			load[j] = rng.Float64() * 200
			quota[j] = 100 + rng.Float64()*1900
		}
		samples[i] = gnn.Sample{Load: load, Quota: quota, Latency: 0.05 + rng.Float64()*0.3}
	}
	tc := gnn.DefaultTrainConfig()
	tc.Iterations = 1
	tc.Batch = 256
	tc.ValFrac, tc.TestFrac = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train(samples, tc)
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

// BenchmarkControllerObsOverhead measures the cost the telemetry subsystem
// adds to one full controller decision (collect→analyze→solve→actuate).
// Disabled is the nil-hook path (one nil check per instrumentation point);
// Enabled records metrics and audit records to a memory-capped
// flight recorder. The acceptance budget is Enabled ≤ Disabled + 5%.
func BenchmarkControllerObsOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		a := app.OnlineBoutique()
		eng := sim.NewEngine(11)
		cl := cluster.New(eng, a, cluster.DefaultConfig())
		cl.ApplyQuotas(map[string]float64{
			"frontend": 1000, "cart": 500, "currency": 750,
			"productcatalog": 1000, "recommendation": 1250, "shipping": 750,
		})
		m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
		bounds := core.Bounds{
			Lo: []float64{100, 100, 100, 100, 100, 100},
			Hi: []float64{6000, 6000, 6000, 6000, 6000, 6000},
		}
		cfg := core.DefaultControllerConfig(0.250)
		// Defeat hysteresis so every Step takes the full decision path —
		// the path the overhead budget is about.
		cfg.Hysteresis = 0
		ctl := core.NewController(cl, m, core.NewAnalyzer(a), bounds, cfg)
		if enabled {
			tel := obs.New(obs.Options{AuditMemory: 256})
			cl.Obs = obs.NewClusterObs(tel)
			ctl.Obs = obs.NewControllerObs(tel)
		}
		g := workload.NewOpenLoop(cl, workload.ConstRate(150))
		g.Start()
		eng.RunUntil(eng.Now() + 60) // build telemetry windows
		ctl.Step()                   // warm caches and first-registration costs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.Step()
		}
	}
	b.Run("Disabled", func(b *testing.B) { run(b, false) })
	b.Run("Enabled", func(b *testing.B) { run(b, true) })
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
