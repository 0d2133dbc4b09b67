package bench

import (
	"fmt"
	"math"
	"slices"

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
// does — warm start, then RunUntil and Controller.Step alternating — with m
// as its latency model, and scores it the same way.
func runSolverLoop(tr *trained, m core.LatencyModel, rate func(float64) float64, ticks int, seed int64) solverLoopOut {
	const tickS = 5.0
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, tr.App, cluster.DefaultConfig())
	warmStart(eng, cl, rate(0))
	ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
	ctl.Model = m
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

// margin reads a latency model c times as slow: a solve on it aims at SLO/c.
type margin struct {
	core.LatencyModel
	c float64
}

func (m margin) Predict(load, quota []float64) float64 {
	return m.c * m.LatencyModel.Predict(load, quota)
}

func (m margin) PredictGrad(load, quota []float64) (float64, []float64) {
	l, g := m.LatencyModel.PredictGrad(load, quota)
	g = slices.Clone(g)
	for i := range g {
		g[i] *= m.c
	}
	return m.c * l, g
}

// scoreModel is a latency model made from each of training seeds 1..seeds'
// pipelines and read with margin c. An oracle models the application, not a
// seed, and every seed's box is the same: it is solved once, on seed 1's,
// measured at every seed's measurement seed, and not run in closed loop.
type scoreModel struct {
	name   string
	c      float64
	seeds  int
	oracle bool
	of     func(tr *trained) core.LatencyModel
}

// solverLoop is the model scorecard: solver version 2 over latency models of
// Online Boutique made from solverLoopModel's pipeline at training seeds 1–8
// (1 at quick): the simulator as an oracle behind a margin c, the MPNN, its
// labeller measured instead of learned, and the MPNN behind a flat margin c.
// Each is scored on core.Honesty's grid, the score core.TestSolverHonesty
// ratchets, and all but the oracle in closed loop (runSolverLoop) on the repo
// benchmark's diurnal 50–250 req/s and rpc_plane's 40 → 80 req/s step. Every
// cell is seeded by its place, so the table does not depend on the schedule.
func solverLoop(s Scale) Result {
	seeds, simSeeds, ticks := 8, 12, 180
	if s.Name == "quick" {
		seeds, simSeeds, ticks = 1, 2, 60
	}
	mpnn := func(tr *trained) core.LatencyModel { return tr.Model }
	var models []scoreModel
	for _, c := range []float64{1, 1.1, 1.25} {
		models = append(models, scoreModel{"oracle", c, seeds, true, func(tr *trained) core.LatencyModel {
			spec := tr.Spec
			spec.SimulatorLabels = true
			return core.NewLabelModel(tr.App, tr.Bounds, spec)
		}})
	}
	models = append(models, scoreModel{"mpnn", 1, seeds, false, mpnn}, scoreModel{"labeller", 1, seeds, false,
		func(tr *trained) core.LatencyModel { return core.NewLabelModel(tr.App, tr.Bounds, tr.Spec) }})
	for _, c := range []float64{1.25, 1.5, 2} {
		models = append(models, scoreModel{"mpnn", c, 4, false, mpnn})
	}
	if s.Name == "quick" {
		models = models[3:5] // the MPNN and its labeller
	}

	// A slot is one model at one training seed; each cell fills its own.
	type slot struct {
		met, answers int
		quota        float64
		loop         [2][]solverLoopOut
	}
	slots := make([][]slot, len(models))
	var cells []func()
	for k, sm := range models {
		slots[k] = make([]slot, sm.seeds)
		if sm.oracle {
			slots[k] = slots[k][:1]
		}
		for i := range slots[k] {
			tr := solverLoopModel(int64(i + 1))
			m, sl := margin{sm.of(tr), sm.c}, &slots[k][i]
			measure := []int64{7000 + int64(i+1)}
			for ts := 2; sm.oracle && ts <= sm.seeds; ts++ {
				measure = append(measure, 7000+int64(ts))
			}
			cells = append(cells, func() {
				sl.met, sl.answers, sl.quota = core.Honesty(tr.App, m, tr.Bounds, core.DefaultSolverConfig(), measure...)
			})
			for t := range sl.loop {
				if !sm.oracle {
					sl.loop[t] = make([]solverLoopOut, simSeeds)
				}
				for j := range sl.loop[t] {
					cells = append(cells, func() {
						rate := workload.StepRate(40, 80, 60+5*float64(ticks)/2)
						if t == 0 {
							rate = workload.SeriesRate(workload.Diurnal(workload.DiurnalConfig{
								Seed: int64(j + 1), Seconds: 70 + 5*ticks, PeriodS: 300, Base: 150, Amp: 100,
							}), 1)
						}
						sl.loop[t][j] = runSolverLoop(tr, m, rate, ticks, int64(j+1))
					})
				}
			}
		}
	}
	core.EachParallel(len(cells), func(k int) { cells[k]() })

	res := Result{
		Title: "Model scorecard: Online Boutique, solver version 2, grid and closed loop",
		Header: []string{"model", "c", "seeds", "grid_met", "grid_quota_m", "headroom_m",
			"diurnal_attain_%", "diurnal_core_h", "step_attain_%", "step_core_h", "calls"},
	}
	var curve [][2]float64   // the oracle's (met share, Σq), in order of c
	var base [2]float64      // the MPNN's met and Σq over every seed
	prev := map[string]int{} // met of the row before, where met rises with c
	// row pools slots: met summed, Σq averaged, medians over every run.
	row := func(sm scoreModel, seeds string, sls []slot) {
		met, answers, quota := 0, 0, 0.0
		var attain, coreH [2][]float64
		var calls []float64
		for _, sl := range sls {
			met, answers, quota = met+sl.met, answers+sl.answers, quota+sl.quota
			for t, runs := range sl.loop {
				for _, o := range runs {
					attain[t], coreH[t], calls = append(attain[t], o.attainPct), append(coreH[t], o.coreHours), append(calls, o.calls)
				}
			}
		}
		quota /= float64(len(sls))
		share := float64(met) / float64(answers)
		cells := []string{sm.name, fmt.Sprintf("%g", sm.c), seeds, fmt.Sprintf("%d/%d", met, answers), f0(quota), "-", "-", "-", "-", "-", "-"}
		if sm.oracle {
			curve = append(curve, [2]float64{share, quota})
		} else {
			if len(curve) > 1 {
				cells[5] = fmt.Sprintf("%+.0f", quota-curveAt(curve, share))
			}
			cells = append(cells[:6], f1(metrics.Median(attain[0])), f3(metrics.Median(coreH[0])),
				f1(metrics.Median(attain[1])), f3(metrics.Median(coreH[1])), f0(metrics.Median(calls)))
			if sm.name == "mpnn" && !(metrics.Median(calls) <= 100) {
				res.Fail("mpnn c=%g seeds %s: median %.0f model calls per solve, want ≤ 100 (core.TestSolverOptimalityGap's bound)", sm.c, seeds, metrics.Median(calls))
			}
		}
		res.AddRow(cells...)
		switch p, ok := prev[sm.name]; {
		case sm.name == "mpnn" && sm.c == 1:
			base = [2]float64{float64(met), quota} // its last row pools every seed
		case sm.name == "labeller":
			if !(float64(met) > base[0] && quota <= base[1]) {
				res.Fail("the labeller meets %d of the grid at mean Σq %.0f m, the MPNN %.0f at %.0f m: want more met at no more quota", met, quota, base[0], base[1])
			}
		default: // the oracle and the flat margins meet more with c
			if ok && met <= p {
				res.Fail("%s c=%g: %d of the grid met, no more than behind the smaller margin before it (%d)", sm.name, sm.c, met, p)
			}
			prev[sm.name] = met
		}
	}
	for k, sm := range models {
		for i := 0; sm.name == "mpnn" && sm.c == 1 && sm.seeds > 1 && i < sm.seeds; i++ {
			row(sm, di(i+1), slots[k][i:i+1])
		}
		label := "1"
		if sm.seeds > 1 {
			label = fmt.Sprintf("1–%d", sm.seeds)
		}
		row(sm, label, slots[k])
	}
	res.Note("grid: core.Honesty's 3 SLOs × 14 rates, each answer run in the simulator at measurement seed 7000 + training seed; grid_met counts measurements that met their SLO, grid_quota_m is the answers' Σq (mean over seeds); headroom_m is that less the oracle curve's Σq at the row's met share (linear between the oracle rows, extended along the end segments)")
	res.Note("closed loop: %d simulation seeds × %d control intervals per trace; medians over every run of the row's seeds", simSeeds, ticks)
	res.Note("shape target: the labeller, the model's own teacher measured instead of learned, meets more of the grid than the MPNN at less quota; a flat margin on the MPNN buys met only along a frontier above the oracle curve")
	return res
}

// curveAt is the piecewise-linear curve through points (x, y), sorted by x,
// at x, extended beyond its ends along the nearest segment.
func curveAt(points [][2]float64, x float64) float64 {
	i := 1
	for i < len(points)-1 && x > points[i][0] {
		i++
	}
	a, b := points[i-1], points[i]
	return a[1] + (x-a[0])*(b[1]-a[1])/(b[0]-a[0])
}
