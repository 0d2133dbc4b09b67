// Benchmarks regenerating every table and figure of the paper (one target
// per experiment — DESIGN.md §3), plus microbenchmarks of the hot paths.
//
// Each experiment benchmark runs the same harness cmd/grafbench uses and
// prints the reproduced table once. The scale defaults to "quick" so the
// full suite stays in CI-friendly time; set GRAF_BENCH_SCALE=standard (or
// full) to spend more compute.
package graf_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
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

func benchScale() bench.Scale {
	switch os.Getenv("GRAF_BENCH_SCALE") {
	case "standard":
		return bench.Standard()
	case "full":
		return bench.Full()
	default:
		return bench.Quick()
	}
}

var printedMu sync.Mutex
var printed = map[string]bool{}

// runExperiment executes one harness runner per benchmark iteration and
// prints its table the first time.
func runExperiment(b *testing.B, fn func(bench.Scale) bench.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := fn(benchScale())
		printedMu.Lock()
		if !printed[res.ID] {
			printed[res.ID] = true
			fmt.Println(res.Format())
		}
		printedMu.Unlock()
	}
}

// --- One benchmark per paper table/figure ---------------------------------

func BenchmarkFig01InstanceCreation(b *testing.B) { runExperiment(b, bench.Fig01InstanceCreation) }
func BenchmarkFig02SurgeInstances(b *testing.B)   { runExperiment(b, bench.Fig02SurgeInstances) }
func BenchmarkFig03SurgeLatency(b *testing.B)     { runExperiment(b, bench.Fig03SurgeLatency) }
func BenchmarkFig06LatencyCurves(b *testing.B)    { runExperiment(b, bench.Fig06LatencyCurves) }
func BenchmarkFig07CascadingEffect(b *testing.B)  { runExperiment(b, bench.Fig07CascadingEffect) }
func BenchmarkTab01Hyperparameters(b *testing.B)  { runExperiment(b, bench.Tab01Hyperparameters) }
func BenchmarkTab02PredictionError(b *testing.B)  { runExperiment(b, bench.Tab02PredictionError) }
func BenchmarkFig11MPNNAblation(b *testing.B)     { runExperiment(b, bench.Fig11MPNNAblation) }
func BenchmarkFig12LossHeatmap(b *testing.B)      { runExperiment(b, bench.Fig12LossHeatmap) }
func BenchmarkFig13SearchSpace(b *testing.B)      { runExperiment(b, bench.Fig13SearchSpace) }
func BenchmarkFig14TotalCPU(b *testing.B)         { runExperiment(b, bench.Fig14TotalCPU) }
func BenchmarkFig15PerMSBoutique(b *testing.B)    { runExperiment(b, bench.Fig15PerMSBoutique) }
func BenchmarkFig16PerMSSocial(b *testing.B)      { runExperiment(b, bench.Fig16PerMSSocial) }
func BenchmarkFig17SLOTargeting(b *testing.B)     { runExperiment(b, bench.Fig17SLOTargeting) }
func BenchmarkFig18UserScaling(b *testing.B)      { runExperiment(b, bench.Fig18UserScaling) }
func BenchmarkFig19CostBenefit(b *testing.B)      { runExperiment(b, bench.Fig19CostBenefit) }
func BenchmarkTab03Budget(b *testing.B)           { runExperiment(b, bench.Tab03Budget) }
func BenchmarkFig20AzureReplay(b *testing.B)      { runExperiment(b, bench.Fig20AzureReplay) }
func BenchmarkFig21SurgeComparison(b *testing.B)  { runExperiment(b, bench.Fig21SurgeComparison) }
func BenchmarkFig22Convergence(b *testing.B)      { runExperiment(b, bench.Fig22Convergence) }

// --- Ablation benchmarks (DESIGN.md §4) ------------------------------------

func BenchmarkAblationLoss(b *testing.B)    { runExperiment(b, bench.AblationLoss) }
func BenchmarkAblationSteps(b *testing.B)   { runExperiment(b, bench.AblationSteps) }
func BenchmarkAblationSolver(b *testing.B)  { runExperiment(b, bench.AblationSolver) }
func BenchmarkAblationSampler(b *testing.B) { runExperiment(b, bench.AblationSampler) }

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

// --- Extension benchmarks (§6 future-work directions) -----------------------

func BenchmarkAblationInteger(b *testing.B)   { runExperiment(b, bench.AblationInteger) }
func BenchmarkAblationAnomaly(b *testing.B)   { runExperiment(b, bench.AblationAnomaly) }
func BenchmarkScalability(b *testing.B)       { runExperiment(b, bench.Scalability) }
func BenchmarkAblationPartition(b *testing.B) { runExperiment(b, bench.AblationPartition) }

// --- Robustness benchmark (chaos injection, DESIGN.md §3c) ------------------

func BenchmarkChaosRobustness(b *testing.B) { runExperiment(b, bench.ChaosRobustness) }

// --- Observability experiments (flight recorder, DESIGN.md §3d) -------------

func BenchmarkObsReplay(b *testing.B)   { runExperiment(b, bench.ObsReplay) }
func BenchmarkObsOverhead(b *testing.B) { runExperiment(b, bench.ObsOverhead) }

// --- Crash recovery (checkpoint + in-place warm restart, DESIGN.md §3e) -----

// BenchmarkRecovery prints the recovery table at the benchmark scale; its
// shape targets are asserted by internal/bench's TestRecoveryWarmBeatsCold.
func BenchmarkRecovery(b *testing.B) { runExperiment(b, bench.Recovery) }

// --- Multi-process fleet (HTTP control plane, DESIGN.md §3h) ----------------

// BenchmarkFleetRPC reports the control-plane numbers as benchmark metrics
// and fails outright on a lost decision or a migration blackout over 5 s
// (drain, checkpoint and restore dragging).
func BenchmarkFleetRPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, st := bench.FleetRPCRun(benchScale())
		printedMu.Lock()
		if !printed[res.ID] {
			printed[res.ID] = true
			fmt.Println(res.Format())
		}
		printedMu.Unlock()
		if !st.ByteIdentical || st.LostDecisions > 0 {
			b.Fatalf("fleet-rpc lost decisions (byteIdentical=%v lost=%v)", st.ByteIdentical, st.LostDecisions)
		}
		if st.MigrationBlackoutMS > 5000 {
			b.Fatalf("migration blackout %.0f ms, ceiling 5000 ms", st.MigrationBlackoutMS)
		}
		b.ReportMetric(st.TicksPerS, "ticks/s")
		b.ReportMetric(st.MigrationBlackoutMS, "migration-blackout-ms")
		b.ReportMetric(st.RebalanceBlackoutMS, "rebalance-blackout-ms")
		b.ReportMetric(st.LostDecisions, "lost-decisions")
	}
}

// --- Crash-safe router (durable placement + epoch fencing, DESIGN.md §3k) ---

// BenchmarkRouterFailover reports the router-failover drill as benchmark
// metrics and fails outright on a takeover blackout over 3 s (epoch bump,
// reconcile and migration roll-forward dragging) or any integrity breach: a
// lost decision, a stale-epoch mutation accepted by a shard, a migration
// record not rolled forward, or a post-takeover audit that is not
// byte-identical to the uninterrupted reference.
func BenchmarkRouterFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, st := bench.RouterFailoverRun(benchScale())
		printedMu.Lock()
		if !printed[res.ID] {
			printed[res.ID] = true
			fmt.Println(res.Format())
		}
		printedMu.Unlock()
		if !st.ByteIdentical || st.LostDecisions > 0 {
			b.Fatalf("router-failover lost decisions (byteIdentical=%v lost=%v)", st.ByteIdentical, st.LostDecisions)
		}
		if st.FencedAccepted > 0 {
			b.Fatalf("router-failover accepted %v stale-epoch mutations (must be 0)", st.FencedAccepted)
		}
		if st.MigrationAction != "rolled-forward" {
			b.Fatalf("mid-flight migration resolved as %q, want rolled-forward", st.MigrationAction)
		}
		if st.TakeoverBlackoutMS > 3000 {
			b.Fatalf("takeover blackout %.0f ms, ceiling 3000 ms", st.TakeoverBlackoutMS)
		}
		b.ReportMetric(st.TakeoverBlackoutMS, "takeover-blackout-ms")
		b.ReportMetric(st.LostDecisions, "lost-decisions")
		b.ReportMetric(st.FencedAccepted, "fenced-accepted")
		b.ReportMetric(st.FencedRejected, "fenced-rejected")
	}
}

// --- Overload protection (brownout ladder, DESIGN.md §3j) -------------------

func BenchmarkOverload(b *testing.B) { runExperiment(b, bench.Overload) }

// --- Fleet-wide observability (tracing + SLO budgets, DESIGN.md §3i) --------

// BenchmarkTraceOverhead reports what distributed tracing costs one tenant
// tick on the fleet's hot path, and fails outright on an overhead over 5%
// (the local target is under 1%; the rest is runner noise) or a traced run
// that moves audit bytes.
func BenchmarkTraceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, st := bench.TraceOverheadRun(benchScale())
		printedMu.Lock()
		if !printed[res.ID] {
			printed[res.ID] = true
			fmt.Println(res.Format())
		}
		printedMu.Unlock()
		if !st.ByteIdentical {
			b.Fatal("trace-overhead: tracing changed the audit stream")
		}
		if st.OverheadPct > 5 {
			b.Fatalf("tracing overhead %.1f%% per tenant tick, ceiling 5%%", st.OverheadPct)
		}
		b.ReportMetric(st.OverheadPct, "overhead-pct")
		b.ReportMetric(st.DisabledNSPerTick, "ns/tick-disabled")
		b.ReportMetric(st.EnabledNSPerTick, "ns/tick-enabled")
		b.ReportMetric(st.Spans, "spans")
	}
}

// --- Workload forecasting (proactive provisioning, DESIGN.md §3l) -----------

// BenchmarkForecast reports the forecasted-vs-reactive study as benchmark
// metrics, and fails outright if forecasting does not buy strictly fewer
// SLO-violation seconds than reacting to the observed rate on BOTH
// workloads — the diurnal cycle and the Azure trace. That
// ordering is the subsystem's reason to exist: capacity ordered at the
// forecast horizon lands before the climb, not after it. Where reacting
// already violates nothing there is nothing to buy, and a forecast that
// violates nothing either passes.
func BenchmarkForecast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, st := bench.ForecastRun(benchScale())
		printedMu.Lock()
		if !printed[res.ID] {
			printed[res.ID] = true
			fmt.Println(res.Format())
		}
		printedMu.Unlock()
		if st.DiurnalForecastViolS >= st.DiurnalReactiveViolS && st.DiurnalForecastViolS > 0 {
			b.Fatalf("diurnal: forecasted violation seconds %.0f not below reactive %.0f",
				st.DiurnalForecastViolS, st.DiurnalReactiveViolS)
		}
		if st.AzureForecastViolS >= st.AzureReactiveViolS && st.AzureForecastViolS > 0 {
			b.Fatalf("azure: forecasted violation seconds %.0f not below reactive %.0f",
				st.AzureForecastViolS, st.AzureReactiveViolS)
		}
		b.ReportMetric(st.DiurnalForecastViolS, "viol-s-forecast-diurnal")
		b.ReportMetric(st.DiurnalReactiveViolS, "viol-s-reactive-diurnal")
		b.ReportMetric(st.DiurnalForecastCoreH, "core-h-forecast-diurnal")
		b.ReportMetric(st.DiurnalReactiveCoreH, "core-h-reactive-diurnal")
		b.ReportMetric(st.AzureForecastViolS, "viol-s-forecast-azure")
		b.ReportMetric(st.AzureReactiveViolS, "viol-s-reactive-azure")
		b.ReportMetric(st.AzureForecastCoreH, "core-h-forecast-azure")
		b.ReportMetric(st.AzureReactiveCoreH, "core-h-reactive-azure")
	}
}

// BenchmarkSLOBurn reports the multi-window burn-rate detection times; the
// fast window firing before the slow one is the alerting contract.
func BenchmarkSLOBurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, st := bench.SLOBurnRun(benchScale())
		printedMu.Lock()
		if !printed[res.ID] {
			printed[res.ID] = true
			fmt.Println(res.Format())
		}
		printedMu.Unlock()
		if !st.Ordered || !st.Rearmed {
			b.Fatalf("slo-burn contract broken (ordered=%v rearmed=%v)", st.Ordered, st.Rearmed)
		}
		b.ReportMetric(st.FastAtS, "fast-at-s")
		b.ReportMetric(st.SlowAtS, "slow-at-s")
		b.ReportMetric(st.LeadS, "lead-s")
	}
}
