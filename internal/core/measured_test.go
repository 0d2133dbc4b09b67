package core

import (
	"math"
	"math/rand"
	"testing"

	"graf/internal/app"
)

// labelBox is the Online Boutique box Train would search at the repo
// benchmark's spec, and a labeller on it with no calibration probes, so
// building it runs no simulator either.
func labelBox(t *testing.T) (*app.App, Bounds, TrainSpec) {
	t.Helper()
	a := app.OnlineBoutique()
	s := TrainSpec{SLO: 0.25, MinRate: 50, MaxRate: 300, Seed: 1}
	sc := NewSampleCollector(a, NewAnalyticMeasurer(a, 0, s.Seed), s.SLO, 0.75*s.MaxRate)
	sc.ProbeRateLo, sc.Seed = s.MinRate, s.Seed+10
	return a, sc.ReduceSearchSpace(), s
}

// TestLabelModelGradientIsItsOwnCentralDifference: at seeded points inside
// the box, PredictGrad's latency is Predict's and each component is the
// central difference of Predict at 0.2% of the box's width, to the bit, and
// a repeated call returns the same bits. The points run on parallel
// goroutines, as Honesty's problems do.
func TestLabelModelGradientIsItsOwnCentralDifference(t *testing.T) {
	a, b, s := labelBox(t)
	m := NewLabelModel(a, b, s)
	an := NewAnalyzer(a)
	rng := rand.New(rand.NewSource(5))
	loads, points := make([][]float64, 8), make([][]float64, 8)
	for k := range points {
		loads[k] = an.Distribute(a.MixRates(50 + 250*rng.Float64()))
		for i := range b.Lo {
			points[k] = append(points[k], b.Lo[i]+(0.01+0.98*rng.Float64())*(b.Hi[i]-b.Lo[i]))
		}
	}
	EachParallel(len(points), func(k int) {
		load, q := loads[k], points[k]
		l, g := m.PredictGrad(load, q)
		l2, g2 := m.PredictGrad(load, q)
		if l != m.Predict(load, q) || l2 != l {
			t.Errorf("point %d: PredictGrad latency %v, again %v, Predict %v", k, l, l2, m.Predict(load, q))
			return
		}
		for i := range q {
			h := 0.002 * (b.Hi[i] - b.Lo[i])
			up, down := append([]float64(nil), q...), append([]float64(nil), q...)
			up[i], down[i] = q[i]+h, q[i]-h
			if want := (m.Predict(load, up) - m.Predict(load, down)) / (2 * h); g[i] != want || g2[i] != g[i] {
				t.Errorf("point %d, ∂L/∂q%d = %v (again %v), central difference %v", k, i, g[i], g2[i], want)
			}
		}
	})
}

// TestLabelModelRunsNoSimulator: the noise-free labeller is the analytic
// formula itself. Without probes its answer is the uncalibrated analytic
// measurer's at the load's total rate (a simulated p99 is a sample quantile
// and never lands within 1e-12 of it), whatever the spec's seed; with
// SimulatorLabels every call is the same simulation (common random numbers).
func TestLabelModelRunsNoSimulator(t *testing.T) {
	a, b, s := labelBox(t)
	other := s
	other.Seed = 9
	m, m9 := NewLabelModel(a, b, s), NewLabelModel(a, b, other)
	ana := NewAnalyticMeasurer(a, 0, 1)
	an := NewAnalyzer(a)
	quotas := map[string]float64{}
	for i, name := range a.ServiceNames() {
		quotas[name] = (b.Lo[i] + b.Hi[i]) / 2
	}
	q := make([]float64, len(b.Lo))
	for i := range q {
		q[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	for _, rate := range []float64{60, 150, 280} {
		load := an.Distribute(a.MixRates(rate))
		got, want := m.Predict(load, q), ana.MeasureE2E(quotas, rate)
		if math.Abs(got-want) > 1e-12*want || m9.Predict(load, q) != got {
			t.Errorf("rate %v: labeller %v (seed 9: %v), analytic %v", rate, got, m9.Predict(load, q), want)
		}
	}
	s.SimulatorLabels = true
	oracle := NewLabelModel(a, b, s)
	load := an.Distribute(a.MixRates(150))
	var l [2]float64
	EachParallel(len(l), func(k int) { l[k] = oracle.Predict(load, q) })
	if !(l[0] > 0) || l[1] != l[0] {
		t.Errorf("the simulator oracle reads %v on two goroutines: want one positive value", l)
	}
}
