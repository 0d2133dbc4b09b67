package bench

import (
	"math"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/metrics"
	"graf/internal/sim"
	"graf/internal/workload"
)

// solverLoopOut is one closed-loop run's outcome.
type solverLoopOut struct {
	attainPct float64 // control intervals whose p99 met the SLO
	coreHours float64 // Σ realized quota × time
	calls     float64 // model calls per solve
}

// runSolverLoop drives one tenant the way the repo benchmark's single_diurnal
// does — warm start, then RunUntil and Controller.Step alternating — under
// the given solver version, and scores it the same way.
func runSolverLoop(tr *trained, version int, rate func(float64) float64, ticks int, seed int64) solverLoopOut {
	const tickS = 5.0
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, tr.App, cluster.DefaultConfig())
	warmStart(eng, cl, rate(0))
	ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
	ctl.Cfg.Solver.Version = version
	solves, calls := 0, 0
	ctl.OnDecision = func(_, _ float64, sol core.Solution) {
		solves++
		calls += sol.Iterations
	}
	gen := workload.NewOpenLoop(cl, rate)
	gen.Start()
	met, coreMilliS := 0, 0.0
	for i := 0; i < ticks; i++ {
		from := eng.Now()
		eng.RunUntil(from + tickS)
		ctl.Step()
		if cl.E2EWindow().Quantile(0.99, from, from+tickS) <= tr.Spec.SLO {
			met++
		}
		coreMilliS += cl.TotalRealizedQuota() * tickS
	}
	gen.Stop()
	return solverLoopOut{
		attainPct: 100 * float64(met) / float64(ticks),
		coreHours: coreMilliS / 1000 / 3600,
		calls:     float64(calls) / math.Max(1, float64(solves)),
	}
}

// solverLoopModel is the repo benchmark's model at a training seed: graf.Train
// of Online Boutique at 250 ms, 50–300 req/s, 800 samples, 400 iterations,
// batch 32.
func solverLoopModel(seed int64) *trained {
	return sharedPipeline(app.OnlineBoutique(), core.TrainSpec{
		SLO: 0.25, MinRate: 50, MaxRate: 300, Samples: 800, Iterations: 400, Batch: 32,
		LR: core.ProductLR, CalibrationProbes: core.ProductCalibrationProbes, Seed: seed,
	})
}

// solverLoop compares the two solver versions where it counts: in the loop.
// Each row is one latency model (the repo benchmark's, solverLoopModel, at
// one training seed) on one trace (the benchmark's diurnal 50–250 req/s, and
// rpc_plane's 40 → 80 req/s step, which sits on the lower edge of the trained
// range), medians over the simulation seeds. The solver-level comparison is core.TestSolverOptimalityGap;
// this one says what the decisions are worth, and how much of any difference
// is the particular model rather than the method. The notes end with
// core.Honesty per training seed: the grid score core.TestSolverHonesty
// ratchets, and how the model's predictions at version 2's answers on the
// solver grid compare with the simulator's.
func solverLoop(s Scale) Result {
	trainSeeds, simSeeds, ticks := 4, 12, 180
	if s.Name == "quick" {
		trainSeeds, simSeeds, ticks = 1, 2, 60
	}
	res := Result{
		Title:  "Closed-loop SLO attainment and cost, solver version 1 vs 2",
		Header: []string{"train_seed", "trace", "v1_attain_%", "v2_attain_%", "v1_core_h", "v2_core_h", "v1_calls", "v2_calls"},
	}
	wins := 0
	for ts := 1; ts <= trainSeeds; ts++ {
		tr := solverLoopModel(int64(ts))
		for _, trace := range []string{"diurnal", "step"} {
			var out [3]struct{ attain, coreH, calls []float64 }
			for seed := int64(1); seed <= int64(simSeeds); seed++ {
				rate := workload.StepRate(40, 80, 60+5*float64(ticks)/2)
				if trace == "diurnal" {
					rate = workload.SeriesRate(workload.Diurnal(workload.DiurnalConfig{
						Seed: seed, Seconds: 70 + 5*ticks, PeriodS: 300, Base: 150, Amp: 100,
					}), 1)
				}
				for v := 1; v <= 2; v++ {
					o := runSolverLoop(tr, v, rate, ticks, seed)
					out[v].attain = append(out[v].attain, o.attainPct)
					out[v].coreH = append(out[v].coreH, o.coreHours)
					out[v].calls = append(out[v].calls, o.calls)
				}
			}
			if metrics.Median(out[2].attain) >= metrics.Median(out[1].attain) {
				wins++
			}
			v1, v2 := metrics.Median(out[1].calls), metrics.Median(out[2].calls)
			res.AddRow(di(ts), trace,
				f1(metrics.Median(out[1].attain)), f1(metrics.Median(out[2].attain)),
				f3(metrics.Median(out[1].coreH)), f3(metrics.Median(out[2].coreH)),
				f0(v1), f0(v2))
			if !(v2 > 0 && v2 < v1/4) {
				res.Fail("train_seed %d, %s: %.0f model calls per solve under version 2 against %.0f under version 1, want under a quarter", ts, trace, v2, v1)
			}
		}
	}
	res.Note("%d simulation seeds × %d control intervals per cell; version 2 attains at least version 1's median on %d of %d rows",
		simSeeds, ticks, wins, 2*trainSeeds)
	res.Note("shape target: the two versions trade places from model to model by a few points either way, at a tenth of the model calls — the difference on any one model is that model's holes, not the method")
	// The honesty table (ROADMAP 1(a)) and the grid score core's quality
	// ratchet pins cost a training and 42 short simulations per model, so
	// they cover four training seeds at any scale, measured as the ratchet
	// measures them.
	for ts := 1; ts <= 4; ts++ {
		tr := solverLoopModel(int64(ts))
		bins, met, quota := core.Honesty(tr.App, tr.Model, tr.Bounds, core.DefaultSolverConfig(), 7000+int64(ts))
		res.Note("grid train_seed %d: %d of 42 answers meet their SLO, Σ quota %.0f m", ts, met, quota)
		for _, bin := range bins {
			if bin.Answers == 0 {
				res.Note("honesty train_seed %d, lower face [%.2f, %.2f):  0 answers", ts, bin.From, bin.To)
				continue
			}
			res.Note("honesty train_seed %d, lower face [%.2f, %.2f): %2d answers, p99 ≤ SLO %5.1f%%, measured/predicted p99 median %.2f",
				ts, bin.From, bin.To, bin.Answers, bin.MetPct, bin.Ratio)
		}
	}
	return res
}
