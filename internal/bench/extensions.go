package bench

import (
	"math"
	"math/rand"
	"time"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/sim"
	"graf/internal/workload"
)

// Benches for the paper's §6 future-work directions, implemented as
// extensions in this repository.

// ablationInteger quantifies §6's integer-optimization headroom: the CPU
// recovered by RefineInteger over the naive per-service ceil of Eq. 7,
// across a sweep of workloads.
func ablationInteger(s Scale) Result {
	tr := boutiquePipeline(s)
	res := Result{Title: "Extension (§6): integer refinement vs naive Eq.7 round-up",
		Header: []string{"rate_rps", "solver_mc", "naive_ceil_mc", "refined_mc", "recovered_mc"}}
	unit := cluster.DefaultConfig().CPUUnit
	for _, rate := range []float64{80, 160, 240, 320} {
		rates := tr.App.PerServiceRate(tr.App.MixRates(rate))
		load := make([]float64, len(tr.App.Services))
		for i, n := range tr.App.ServiceNames() {
			load[i] = rates[n]
		}
		sol := core.Solve(tr.Model, load, tr.Spec.SLO, tr.Bounds.Lo, tr.Bounds.Hi, core.DefaultSolverConfig())
		naive := 0.0
		for _, q := range sol.Quotas {
			naive += math.Ceil(q/unit) * unit
		}
		ref := core.RefineInteger(tr.Model, load, tr.Spec.SLO, sol, tr.Bounds.Lo, unit)
		res.AddRow(f0(rate), f0(sol.TotalQuota), f0(naive), f0(ref.TotalQuota), f0(naive-ref.TotalQuota))
	}
	res.Note("§6: 'there is slight improvement room for GRAF to save more resources' — the recovered column is that room")
	return res
}

// ablationAnomaly demonstrates §6's contention-anomaly direction: inject a
// contention spike into a GRAF-minimized deployment and compare tail
// latency with and without the anomaly mitigator.
func ablationAnomaly(s Scale) Result {
	tr := boutiquePipeline(s)
	res := Result{Title: "Extension (§6): contention anomaly, with vs without mitigator",
		Header: []string{"variant", "p99_before_ms", "p99_during_ms", "p99_after_ms", "boosts"}}
	run := func(mitigate bool) []string {
		eng := sim.NewEngine(71)
		cl := newCluster(eng, tr.App)
		warmStart(eng, cl, 120)
		ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
		// The controller's own violation guardrail would mask the
		// mitigator; disable it for a clean comparison.
		ctl.Cfg.ViolationBoost = 1
		ctl.Start()
		g := workload.NewOpenLoop(cl, workload.ConstRate(120))
		g.Start()
		var mit *core.AnomalyMitigator
		if mitigate {
			mit = core.NewAnomalyMitigator(cl)
			mit.Start()
		}
		eng.RunUntil(260)
		before := cl.E2ELatencyQuantile(0.99, 60)
		cl.InjectContention("recommendation", 3, 120)
		eng.RunUntil(380)
		during := cl.E2ELatencyQuantile(0.99, 60)
		eng.RunUntil(500)
		after := cl.E2ELatencyQuantile(0.99, 60)
		g.Stop()
		ctl.Stop()
		boosts := 0
		if mit != nil {
			mit.Stop()
			boosts = mit.Fired()
		}
		eng.Run()
		name := "no mitigator"
		if mitigate {
			name = "with mitigator"
		}
		return []string{name, ms(before), ms(during), ms(after), di(boosts)}
	}
	res.AddRow(run(false)...)
	res.AddRow(run(true)...)
	res.Note("shape target: the mitigator cuts the during-anomaly tail by adding temporary quota, then returns it")
	return res
}

// scalability sweeps the number of microservices (§6, "Scalability of
// GRAF"): per-prediction and per-solve wall time as the graph grows,
// comparing the monolithic model against the graph-partitioned variant
// (gnn.Partitioned) whose readout dimension is bounded by the largest
// partition.
func scalability(s Scale) Result {
	res := Result{Title: "Extension (§6): model/solver cost vs application size, monolithic vs partitioned",
		Header: []string{"services", "predict_us", "part_predict_us", "solve_ms", "part_solve_ms", "readout_dim", "part_dim"}}
	sizes := []int{6, 10, 20, 40}
	if s.Name != "quick" {
		sizes = append(sizes, 80)
	}
	for _, n := range sizes {
		a := app.SyntheticChain(n)
		cfg := gnn.DefaultConfig(len(a.Services), a.Parents())
		m := gnn.New(cfg, rand.New(rand.NewSource(int64(n))))
		nParts := (n + 9) / 10 // ≤10 services per partition
		groups := gnn.PartitionByDepth(a.Parents(), nParts)
		pm := gnn.NewPartitioned(cfg, a.Parents(), groups, rand.New(rand.NewSource(int64(n+1))))
		load := make([]float64, n)
		quota := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range load {
			load[i] = 100
			quota[i] = 800
			lo[i], hi[i] = 100, 2000
		}
		timePredict := func(pred func()) float64 {
			t0 := time.Now()
			const reps = 200
			for i := 0; i < reps; i++ {
				pred()
			}
			return time.Since(t0).Seconds() / reps * 1e6
		}
		mono := timePredict(func() { m.Predict(load, quota) })
		part := timePredict(func() { pm.Predict(load, quota) })

		scfg := core.DefaultSolverConfig()
		scfg.MaxIters = 200
		t1 := time.Now()
		core.Solve(m, load, 0.2, lo, hi, scfg)
		monoSolve := time.Since(t1).Seconds() * 1e3
		t2 := time.Now()
		core.Solve(pm, load, 0.2, lo, hi, scfg)
		partSolve := time.Since(t2).Seconds() * 1e3

		largest := 0
		for _, g := range groups {
			if len(g) > largest {
				largest = len(g)
			}
		}
		res.AddRow(di(n), f1(mono), f1(part), f1(monoSolve), f1(partSolve),
			di(n*cfg.Embed), di(largest*cfg.Embed))
	}
	res.Note("§6: the monolithic readout grows linearly with services; partitioning bounds it by the largest partition")
	return res
}

// ablationPartition quantifies what partitioning costs in accuracy: both
// predictors trained on the same samples from a 20-service chain, evaluated
// on the same held-out split.
func ablationPartition(s Scale) Result {
	res := Result{Title: "Extension (§6): monolithic vs partitioned model accuracy (20-service chain)",
		Header: []string{"model", "best_val_loss", "test_MAPE_%"}}
	a := app.SyntheticChain(20)
	ana := core.NewAnalyticMeasurer(a, 0.1, 41)
	sc := core.NewSampleCollector(a, ana, 0.4, 80)
	sc.ProbeRateLo = 20
	b := sc.ReduceSearchSpace()
	sc.MaxLatency = 2
	sc.Seed = 42
	samples := sc.Collect(s.Samples/2, 20, 120, b)

	tc := gnn.DefaultTrainConfig()
	tc.Iterations, tc.Batch, tc.Seed = s.Iterations/2, s.Batch, 43
	tc.LR = 2e-3

	cfg := gnn.DefaultConfig(len(a.Services), a.Parents())
	mono := gnn.New(cfg, rand.New(rand.NewSource(44)))
	rm := mono.Train(samples, tc)
	res.AddRow("monolithic", f3(rm.BestVal), f1(modelQuality(mono, rm.Test)*100))

	groups := gnn.PartitionByDepth(a.Parents(), 2)
	pm := gnn.NewPartitioned(cfg, a.Parents(), groups, rand.New(rand.NewSource(45)))
	rp := pm.Train(samples, tc)
	rows, _ := pm.Evaluate(rp.Test, [][2]float64{{0, 1e9}})
	res.AddRow("partitioned (2 groups)", f3(rp.BestVal), f1(rows[0].MAPE*100))
	res.Note("partitioning drops cross-partition message passing; the MAPE gap is that price")
	return res
}
