package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graf/internal/app"
	"graf/internal/gnn"
)

// perCallScratch is the reference LatencyModel for the one-shot path: the
// same inference kernel on a Scratch built fresh for every call, which is
// what (*gnn.Model).Predict/PredictGrad did before they borrowed one.
type perCallScratch struct{ m *gnn.Model }

func (p perCallScratch) Predict(load, quota []float64) float64 {
	return p.m.PredictWith(p.m.NewScratch(), load, quota)
}

func (p perCallScratch) PredictGrad(load, quota []float64) (float64, []float64) {
	y, dq := p.m.PredictGradWith(p.m.NewScratch(), load, quota)
	return y, append([]float64(nil), dq...)
}

// solverFixture is Online Boutique with an untrained paper-shaped model and
// an SLO halfway between its predictions at the two ends of the box, so the
// descent crosses the SLO boundary and both gradient branches run.
func solverFixture(rate float64) (m *gnn.Model, load []float64, slo float64, lo, hi []float64) {
	a := app.OnlineBoutique()
	n := len(a.Services)
	m = gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(3)))
	load = NewAnalyzer(a).Distribute(a.MixRates(rate))
	lo, hi = make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 100, 3000
	}
	slo = (m.Predict(load, lo) + m.Predict(load, hi)) / 2
	return m, load, slo, lo, hi
}

// A solve through the scratch-borrowing one-shot methods must equal, field
// for field, a solve through per-call scratches: reuse may change what a
// decision costs, never the decision. Rates are the repo benchmark's
// micro-ledger rates (trough, shoulders and peak of the diurnal shape).
func TestSolveOneShotPathMatchesPerCallScratch(t *testing.T) {
	cfg := DefaultSolverConfig()
	if testing.Short() {
		cfg.MaxIters = 150
	}
	for _, rate := range []float64{50, 80, 110, 140, 170, 200, 230, 250} {
		m, load, slo, lo, hi := solverFixture(rate)
		got := Solve(m, load, slo, lo, hi, cfg)
		want := Solve(perCallScratch{m}, load, slo, lo, hi, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rate %v: one-shot solve\n  %+v\nper-call-scratch solve\n  %+v", rate, got, want)
		}
		if got.Iterations == 0 || len(got.Quotas) != len(load) {
			t.Fatalf("rate %v: degenerate solve %+v", rate, got)
		}
	}
}

// countingModel counts the calls a solve makes, by method.
type countingModel struct {
	m               LatencyModel
	predicts, grads int
}

func (c *countingModel) Predict(load, quota []float64) float64 {
	c.predicts++
	return c.m.Predict(load, quota)
}

func (c *countingModel) PredictGrad(load, quota []float64) (float64, []float64) {
	c.grads++
	return c.m.PredictGrad(load, quota)
}

// With a *gnn.Model a solve's heap traffic is its own state — the answer, one
// scratch block, the free mask — plus the one gradient slice
// LatencyModel.PredictGrad hands back per call: no inference buffers, and
// nothing per Predict call. Version 1 is the same with one gradient per
// iteration, exactly.
func TestSolveAllocationsAreSolverStatePlusOneGradientPerIteration(t *testing.T) {
	m, load, slo, lo, hi := solverFixture(140)
	cfg := DefaultSolverConfig()
	counter := &countingModel{m: m}
	sol := Solve(counter, load, slo, lo, hi, cfg)
	if counter.grads < 3 || counter.predicts < 10 {
		t.Fatalf("fixture solve is degenerate: %d gradient and %d plain calls, %+v", counter.grads, counter.predicts, sol)
	}
	allocs := testing.AllocsPerRun(3, func() { Solve(m, load, slo, lo, hi, cfg) })
	if fixed := allocs - float64(counter.grads); fixed < 0 || fixed > 16 {
		t.Errorf("a solve with %d gradient calls allocates %v objects: %v beyond one per gradient, want <= 16", counter.grads, allocs, fixed)
	}

	cfg.Version, cfg.Tolerance = 1, 0 // never exit early: Iterations == MaxIters
	fixed := map[int]float64{}
	for _, iters := range []int{150, 600} {
		cfg.MaxIters = iters
		allocs := testing.AllocsPerRun(3, func() {
			if sol := Solve(m, load, slo, lo, hi, cfg); sol.Iterations != iters {
				t.Fatalf("version 1 ran %d iterations, want %d", sol.Iterations, iters)
			}
		})
		fixed[iters] = allocs - float64(iters)
	}
	if fixed[150] != fixed[600] || fixed[150] < 0 || fixed[150] > 16 {
		t.Errorf("version 1 allocates %v objects beyond one gradient per iteration at 150, %v at 600: want one small constant", fixed[150], fixed[600])
	}
}

// solveCases are the three ways a solve can go: the lower corner already
// meets the SLO, the upper corner misses it, and the ordinary case with the
// boundary inside the box.
type solveCase struct {
	name   string
	h      hyperbola
	load   []float64
	slo    float64
	lo, hi []float64
}

func solveCases() []solveCase {
	return []solveCase{
		{"lo feasible", hyperbola{a: []float64{10, 10}}, []float64{1, 1}, 10, []float64{100, 100}, []float64{3000, 3000}},
		{"hi infeasible", hyperbola{a: []float64{10, 10}}, []float64{1, 1}, 0.001, []float64{400, 400}, []float64{800, 800}},
		{"interior", hyperbola{a: []float64{20, 5, 45}}, []float64{1, 1, 1}, 0.150, []float64{50, 50, 50}, []float64{5000, 5000, 5000}},
	}
}

// Every solve opens with a PredictGrad call (the repo benchmark samples the
// solver's inputs from those and indexes into them), Iterations is the number
// of model calls of either kind, and no budget, however small, is exceeded.
func TestSolveCountsEveryModelCallAndKeepsToItsBudget(t *testing.T) {
	for _, tc := range solveCases() {
		for _, budget := range []int{1, 2, 3, 5, 10, 25, 40, 75, 600} {
			for _, start := range [][]float64{nil, tc.lo, tc.hi} {
				cfg := DefaultSolverConfig()
				cfg.MaxIters = budget
				counter := &countingModel{m: tc.h}
				sol := SolveFrom(counter, tc.load, tc.slo, tc.lo, tc.hi, cfg, start)
				calls := counter.predicts + counter.grads
				if counter.grads < 1 {
					t.Errorf("%s, budget %d: no PredictGrad call", tc.name, budget)
				}
				if sol.Iterations != calls {
					t.Errorf("%s, budget %d: Iterations = %d, the model saw %d calls", tc.name, budget, sol.Iterations, calls)
				}
				if calls > budget {
					t.Errorf("%s: %d model calls on a budget of %d", tc.name, calls, budget)
				}
				for i, q := range sol.Quotas {
					if !(q >= tc.lo[i] && q <= tc.hi[i]) {
						t.Errorf("%s, budget %d: quota[%d] = %v outside [%v, %v]", tc.name, budget, i, q, tc.lo[i], tc.hi[i])
					}
				}
				if got := tc.h.Predict(tc.load, sol.Quotas); got != sol.Predicted {
					t.Errorf("%s, budget %d: Predicted = %v, the model says %v at Quotas", tc.name, budget, sol.Predicted, got)
				}
			}
		}
	}
}

// Converged means "stopped by its own criterion, not by the budget". A corner
// of the box is a criterion: the SLO the box cannot meet converges at hi, the
// SLO it meets everywhere at lo. Running out of budget in the middle of the
// walk is not — and still returns a feasible point.
func TestSolveConvergedMeansStoppedByItsOwnCriterion(t *testing.T) {
	for _, tc := range solveCases() {
		sol := Solve(tc.h, tc.load, tc.slo, tc.lo, tc.hi, DefaultSolverConfig())
		if !sol.Converged {
			t.Errorf("%s: not converged on the default budget: %+v", tc.name, sol)
		}
		if sol.Iterations >= DefaultSolverConfig().MaxIters/4 {
			t.Errorf("%s: %d model calls, the budget is supposed to be far away", tc.name, sol.Iterations)
		}
	}
	tc := solveCases()[2]
	full := Solve(tc.h, tc.load, tc.slo, tc.lo, tc.hi, DefaultSolverConfig())
	cfg := DefaultSolverConfig()
	cfg.MaxIters = full.Iterations / 2
	cut := Solve(tc.h, tc.load, tc.slo, tc.lo, tc.hi, cfg)
	if cut.Converged || cut.Iterations != cfg.MaxIters {
		t.Errorf("half the calls a full solve needs: converged=%v after %d of %d", cut.Converged, cut.Iterations, cfg.MaxIters)
	}
	if cut.Predicted > tc.slo || cut.TotalQuota < full.TotalQuota {
		t.Errorf("budget-cut solve: predicted %v (SLO %v), Σ quota %v (full solve %v): want feasible and no cheaper than the full solve",
			cut.Predicted, tc.slo, cut.TotalQuota, full.TotalQuota)
	}
	// A model that answers NaN has no criterion to stop by.
	nan := flakyModel{inner: tc.h, broken: new(bool)}
	*nan.broken = true
	if sol := Solve(nan, tc.load, tc.slo, tc.lo, tc.hi, DefaultSolverConfig()); sol.Converged || sol.Predicted == sol.Predicted {
		t.Errorf("NaN model: %+v, want unconverged with a NaN prediction", sol)
	}
}

// An SLO the box cannot meet saturates hi on every tick of a surge. That is a
// converged solve, so the breaker's "second consecutive unconverged miss"
// clause must never fire on it — with the flag tied to feasibility instead,
// every surge opened the breaker.
func TestSaturatedSolveNeverOpensTheBreakerByItself(t *testing.T) {
	tc := solveCases()[1]
	sol := Solve(tc.h, tc.load, tc.slo, tc.lo, tc.hi, DefaultSolverConfig())
	if !sol.Converged || sol.Predicted <= tc.slo*1.05 {
		t.Fatalf("fixture is not a converged miss: %+v", sol)
	}
	streak := 0
	for i := 0; i < 10; i++ {
		streak = nextUnconverged(streak, sol.Converged, sol.Predicted, tc.slo)
	}
	if streak != 0 {
		t.Errorf("ten saturated solves count as %d unconverged misses", streak)
	}
	if got := nextUnconverged(1, false, sol.Predicted, tc.slo); got != 2 {
		t.Errorf("an unconverged miss after another counts %d, want 2", got)
	}
}

// On the benchmark-shaped model nearly every solve of a rate grid converges,
// and the unattainable ones (an SLO under the model's floor) do too.
func TestSolveConvergesOnTheTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	tr := boutiqueModel()
	an := NewAnalyzer(tr.app)
	n, converged := 0, 0
	for _, slo := range []float64{0.05, 0.25} {
		for rate := 50.0; rate <= 300; rate += 5 {
			sol := Solve(tr.model, an.Distribute(tr.app.MixRates(rate)), slo, tr.b.Lo, tr.b.Hi, DefaultSolverConfig())
			if n++; sol.Converged {
				converged++
			}
			if slo == 0.05 && (sol.Iterations != 2 || !sol.Converged || !slices.Equal(sol.Quotas, tr.b.Hi)) {
				t.Errorf("rate %v: an SLO under the model's floor: %+v, want the upper corner after both corners were looked at", rate, sol)
			}
		}
	}
	if 10*converged < 9*n {
		t.Errorf("%d of %d solves converged, want >= 90%%", converged, n)
	}
}

// quantized evaluates its model on a grid of quotas, as fleet.TenantPredictor
// does: piecewise constant, with the gradient of the grid point.
type quantized struct {
	m    LatencyModel
	grid float64
	buf  []float64
}

func (q *quantized) snap(quota []float64) []float64 {
	q.buf = q.buf[:0]
	for _, v := range quota {
		q.buf = append(q.buf, math.Max(q.grid, math.Round(v/q.grid)*q.grid))
	}
	return q.buf
}

func (q *quantized) Predict(load, quota []float64) float64 { return q.m.Predict(load, q.snap(quota)) }

func (q *quantized) PredictGrad(load, quota []float64) (float64, []float64) {
	return q.m.PredictGrad(load, q.snap(quota))
}

// A seeded sweep over random hyperbola oracles and boxes, smooth and on the
// fleet's 2 mc grid: the answer is inside the box, feasible whenever the box
// admits it, no more expensive than the upper corner, bit-identical when the
// solve is repeated, and found well inside the budget — on the grid |L − SLO|
// cannot be driven into the boundary band, so the searches must stop on
// interval width instead.
func TestSolvePropertiesOnRandomOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		h := hyperbola{a: make([]float64, n), c: 0.02 * rng.Float64()}
		load, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range lo {
			h.a[i] = 0.5 + 40*rng.Float64()
			load[i] = 0.2 + 3*rng.Float64()
			lo[i] = 20 + 400*rng.Float64()
			hi[i] = lo[i] + 4000*rng.Float64()*rng.Float64() // some sides nearly flat
		}
		// An SLO anywhere from under the floor to over the ceiling.
		floor, ceil := h.Predict(load, hi), h.Predict(load, lo)
		slo := floor*0.9 + (ceil*1.1-floor*0.9)*rng.Float64()
		var m LatencyModel = h
		if trial%2 == 1 {
			m = &quantized{m: h, grid: 2}
			floor = m.Predict(load, hi)
		}
		cfg := DefaultSolverConfig()
		sol := Solve(m, load, slo, lo, hi, cfg)
		if again := Solve(m, load, slo, lo, hi, cfg); !reflect.DeepEqual(sol, again) {
			t.Fatalf("trial %d: repeated solve differs:\n  %+v\n  %+v", trial, sol, again)
		}
		for i, q := range sol.Quotas {
			if !(q >= lo[i] && q <= hi[i]) {
				t.Fatalf("trial %d: quota[%d] = %v outside [%v, %v]", trial, i, q, lo[i], hi[i])
			}
		}
		if sol.Predicted != m.Predict(load, sol.Quotas) {
			t.Fatalf("trial %d: Predicted %v is not the model at Quotas", trial, sol.Predicted)
		}
		if floor <= slo && !(sol.Predicted <= slo) {
			t.Fatalf("trial %d: box admits the SLO (%v at hi <= %v) but the answer predicts %v", trial, floor, slo, sol.Predicted)
		}
		if sol.TotalQuota > total(hi) {
			t.Fatalf("trial %d: Σ quota %v above the upper corner's %v", trial, sol.TotalQuota, total(hi))
		}
		if !sol.Converged || sol.Iterations > cfg.MaxIters/2 {
			t.Fatalf("trial %d (n=%d, grid=%v): converged=%v after %d model calls", trial, n, trial%2 == 1, sol.Converged, sol.Iterations)
		}
	}
}
