package bench

import (
	"math/rand"
	"time"

	"graf/internal/app"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/nn"
	"graf/internal/obs"
)

// Ablations for the design choices DESIGN.md §4 calls out. These go beyond
// the paper's own figures: they quantify why each mechanism is there.

// ablationLoss compares the asymmetric Hüber loss (Eq. 4) against plain
// MSE on percentage error: the asymmetric loss should push the signed mean
// error positive (safe overestimation) at similar absolute error.
func ablationLoss(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Ablation: asymmetric hüber (Eq.4) vs MSE",
		Header: []string{"loss", "test_MAPE_%", "signed_mean_%", "underestimates_%"}}

	eval := func(m *gnn.Model) (mape, signed, under float64) {
		rows, over := m.Evaluate(tr.Result.Test, [][2]float64{{0, 1e9}})
		nUnder := 0
		for _, smp := range tr.Result.Test {
			if m.Predict(smp.Load, smp.Quota) < smp.Latency {
				nUnder++
			}
		}
		return rows[0].MAPE, over, float64(nUnder) / float64(len(tr.Result.Test))
	}
	mape, signed, under := eval(tr.Model)
	res.AddRow("asymmetric hüber", f1(mape*100), f1(signed*100), f1(under*100))

	cfg := gnn.DefaultConfig(len(tr.App.Services), tr.App.Parents())
	mse := gnn.New(cfg, rand.New(rand.NewSource(777)))
	tc := gnn.DefaultTrainConfig()
	tc.Iterations, tc.Batch, tc.Seed = s.Iterations, s.Batch, 61
	tc.LR = 2e-3
	tc.Loss = nn.MSE{}
	mse.Train(tr.Samples, tc)
	mape, signed, under = eval(mse)
	res.AddRow("MSE", f1(mape*100), f1(signed*100), f1(under*100))
	res.Note("shape target: hüber shifts signed mean positive and cuts the underestimation rate — the property GRAF's SLO detector needs")
	return res
}

// ablationSteps sweeps the number of message-passing steps K ∈ {0,1,2,3}
// (the paper fixes K=2; K=0 is the no-MPNN ablation of Fig 11).
func ablationSteps(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Ablation: message-passing steps",
		Header: []string{"steps", "best_val_loss", "test_MAPE_%"}}
	for _, k := range []int{0, 1, 2, 3} {
		cfg := gnn.DefaultConfig(len(tr.App.Services), tr.App.Parents())
		if k == 0 {
			cfg.UseMPNN = false
		} else {
			cfg.Steps = k
		}
		m := gnn.New(cfg, rand.New(rand.NewSource(int64(800+k))))
		tc := gnn.DefaultTrainConfig()
		tc.Iterations, tc.Batch, tc.Seed = s.Iterations, s.Batch, int64(62+k)
		tc.LR = 2e-3
		r := m.Train(tr.Samples, tc)
		res.AddRow(di(k), f3(r.BestVal), f1(modelQuality(m, r.Test)*100))
	}
	res.Note("paper uses K=2: step 1 aggregates anterior node features, step 2 anterior embeddings")
	return res
}

// ablationSolver compares the gradient-based configuration solver against
// random search and coordinate grid search, each allowed the solver's whole
// latency-model-query budget (the solver stops on its own criterion long
// before it) — the paper's argument for gradients is that global optimizers
// do not fit the synchronous decision window.
func ablationSolver(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Ablation: configuration solver strategies (same model-query budget, queries used)",
		Header: []string{"strategy", "total_quota_mc", "predicted_ms", "feasible", "queries"}}
	a := tr.App
	load := make([]float64, len(a.Services))
	rates := a.PerServiceRate(a.MixRates(EvalRate))
	for i, n := range a.ServiceNames() {
		load[i] = rates[n]
	}
	slo := tr.Spec.SLO
	budget := core.DefaultSolverConfig().MaxIters

	sol := core.Solve(tr.Model, load, slo, tr.Bounds.Lo, tr.Bounds.Hi, core.DefaultSolverConfig())
	res.AddRow("gradient projection (GRAF)", f0(sol.TotalQuota), ms(sol.Predicted),
		boolStr(sol.Predicted <= slo*1.02), di(sol.Iterations))

	// Random search: uniform in-bounds draws; keep the cheapest feasible.
	rng := rand.New(rand.NewSource(900))
	bestTotal, bestPred := 0.0, 0.0
	found := false
	q := make([]float64, len(load))
	for it := 0; it < budget; it++ {
		total := 0.0
		for i := range q {
			q[i] = tr.Bounds.Lo[i] + rng.Float64()*(tr.Bounds.Hi[i]-tr.Bounds.Lo[i])
			total += q[i]
		}
		if p := tr.Model.Predict(load, q); p <= slo && (!found || total < bestTotal) {
			bestTotal, bestPred, found = total, p, true
		}
	}
	res.AddRow("random search", f0(bestTotal), ms(bestPred), boolStr(found), di(budget))

	// Coordinate descent on a grid: repeatedly shrink each service's quota
	// while feasible.
	for i := range q {
		q[i] = tr.Bounds.Hi[i]
	}
	queries := 0
	step := 50.0
	for pass := 0; pass < 100 && queries < budget; pass++ {
		improved := false
		for i := range q {
			if queries >= budget {
				break
			}
			trial := q[i] - step
			if trial < tr.Bounds.Lo[i] {
				continue
			}
			old := q[i]
			q[i] = trial
			queries++
			if tr.Model.Predict(load, q) <= slo {
				improved = true
			} else {
				q[i] = old
			}
		}
		if !improved {
			break
		}
	}
	total := 0.0
	for _, v := range q {
		total += v
	}
	res.AddRow("coordinate grid", f0(total), ms(tr.Model.Predict(load, q)), "true", di(queries))
	res.Note("shape target: the gradient-based solver matches or beats the search baselines on a fraction of their queries, without tuning a step schedule per app")
	return res
}

// ablationSampler compares the product's two labellers: core.Train with the
// same spec, once on simulator-calibrated analytic labels and once on
// simulator labels (at a quarter of the samples), both evaluated against
// simulator-measured ground truth.
func ablationSampler(s Scale) Result {
	res := Result{Title: "Ablation: analytic-calibrated vs simulator-labeled training data",
		Header: []string{"labeler", "sim_test_MAPE_%", "samples"}}
	a := app.OnlineBoutique()
	nTest := 60
	if s.Name == "quick" {
		nTest = 24
	}
	spec := core.TrainSpec{
		SLO: 0.25, MinRate: 40, MaxRate: 320, Iterations: s.Iterations, Batch: s.Batch,
		LR: core.ProductLR, CalibrationProbes: s.CalibrationProbes, Seed: 5,
	}
	var test []gnn.Sample
	for _, arm := range []struct {
		name    string
		sim     bool
		samples int
	}{{"analytic+calibration", false, s.Samples}, {"simulator-labeled", true, s.Samples / 4}} {
		spec.SimulatorLabels, spec.Samples, spec.Obs = arm.sim, arm.samples, obs.New(obs.Options{})
		t0 := time.Now()
		tr := core.Train(a, spec)
		wallS := time.Since(t0).Seconds() - spec.Obs.Reg.Histogram("graf_train_batch_seconds", "", nil, nil).Sum()
		if test == nil { // the spec fixes the bounds, so both arms share them
			sc := core.NewSampleCollector(a, core.NewSimMeasurer(a, 300), spec.SLO, 0)
			sc.Seed, sc.MaxLatency = 97, 5*spec.SLO // the range core.Train keeps
			test = sc.Collect(nTest, spec.MinRate, spec.MaxRate, tr.Bounds)
		}
		rows, _ := tr.Model.Evaluate(test, [][2]float64{{0, 1e9}})
		res.AddRow(arm.name, f1(rows[0].MAPE*100), di(len(tr.Samples)))
		res.Note("%s: %.3f ms wall time per label (core.Train outside its training batches: bounds, calibration, labelling)",
			arm.name, 1e3*wallS/float64(max(1, len(tr.Samples))))
	}
	res.Note("test labels are simulator-measured; %d calibration probes", spec.CalibrationProbes)
	return res
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
