package core

import (
	"math/rand"
	"reflect"
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

// With a *gnn.Model the solver's heap traffic is its own handful of vectors
// plus the one gradient slice LatencyModel.PredictGrad hands back per
// iteration: no inference buffers, so quadrupling MaxIters adds exactly the
// extra gradients and nothing else.
func TestSolveAllocationsAreSolverStatePlusOneGradientPerIteration(t *testing.T) {
	m, load, slo, lo, hi := solverFixture(140)
	cfg := DefaultSolverConfig()
	cfg.Tolerance = 0 // never exit early: Iterations == MaxIters
	fixed := map[int]float64{}
	for _, iters := range []int{150, 600} {
		cfg.MaxIters = iters
		allocs := testing.AllocsPerRun(3, func() {
			if sol := Solve(m, load, slo, lo, hi, cfg); sol.Iterations != iters {
				t.Fatalf("solve ran %d iterations, want %d", sol.Iterations, iters)
			}
		})
		fixed[iters] = allocs - float64(iters)
	}
	if fixed[150] != fixed[600] {
		t.Errorf("allocations beyond one gradient per iteration grew with MaxIters: %v at 150, %v at 600", fixed[150], fixed[600])
	}
	if fixed[150] < 0 || fixed[150] > 16 {
		t.Errorf("solver state costs %v objects per solve, want a small constant (<= 16)", fixed[150])
	}
}
