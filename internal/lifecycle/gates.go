package lifecycle

import (
	"fmt"
	"math"

	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/metrics"
)

// GateResult is the promotion gate's verdict on a candidate model.
type GateResult struct {
	Pass    bool
	Reasons []string // every failed check, empty when Pass

	// Shadow-scoring evidence: mean absolute relative residual of the
	// candidate and the incumbent over the live canary window.
	CandShadow, IncShadow float64

	// Offline evidence: overall MAPE of each model on the rolling sample
	// window (EvaluateRegions aggregate).
	CandMAPE, IncMAPE float64
}

func (g GateResult) String() string {
	if g.Pass {
		return fmt.Sprintf("pass (shadow %.3f vs %.3f, mape %.3f vs %.3f)",
			g.CandShadow, g.IncShadow, g.CandMAPE, g.IncMAPE)
	}
	s := "reject:"
	for _, r := range g.Reasons {
		s += " " + r
	}
	return s
}

// overallMAPE aggregates EvaluateRegions rows into a single count-weighted
// mean absolute percentage error.
func overallMAPE(m *gnn.Model, set []gnn.Sample) float64 {
	rows, _ := m.EvaluateRegions(set)
	sum, n := 0.0, 0
	for _, r := range rows {
		sum += r.MAPE * float64(r.Count)
		n += r.Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// gateCandidate runs every promotion gate. A candidate is promoted only if
// it beats the incumbent on live shadow residual AND on the sample-window
// MAPE AND passes the sanity gates — bounded predictions, monotone tendency
// in quota, gradient-sign sanity. The sanity gates are what stop a candidate
// trained on poisoned or degenerate telemetry: such a model can score well
// on the (equally poisoned) shadow window while being catastrophically wrong
// about the quota→latency surface the solver differentiates through.
func gateCandidate(cand, inc *gnn.Model, samples []gnn.Sample,
	bounds core.Bounds, slo float64,
	candShadow, incShadow float64, shadowN int) GateResult {

	g := GateResult{CandShadow: candShadow, IncShadow: incShadow}
	fail := func(format string, args ...any) {
		g.Reasons = append(g.Reasons, fmt.Sprintf(format, args...))
	}

	// Gate 1: live shadow residual. The candidate must beat the incumbent
	// by promoteMargin on traffic neither trained on.
	if shadowN == 0 {
		fail("no shadow observations")
	} else if !(candShadow < incShadow*promoteMargin) {
		fail("shadow residual %.3f not < %.3f×%.2f", candShadow, incShadow, promoteMargin)
	}

	// Gate 2: sample-window MAPE via EvaluateRegions — a broader probe than
	// the live window, stratified over the observed latency range.
	if len(samples) > 0 {
		g.CandMAPE = overallMAPE(cand, samples)
		g.IncMAPE = overallMAPE(inc, samples)
		if !(g.CandMAPE < g.IncMAPE) {
			fail("window MAPE %.3f not < incumbent %.3f", g.CandMAPE, g.IncMAPE)
		}
	}

	// Probe loads: medians of the recent samples, the operating point the
	// solver will actually query.
	load := medianLoad(samples, len(bounds.Lo))

	// Gate 3: bounded prediction envelope. Predictions along the Lo→Hi box
	// diagonal must be finite, positive, and under predCapFactor×SLO — a
	// collapsed or exploded candidate fails here regardless of its scores.
	cap := predCapFactor * slo
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	preds := make([]float64, len(fracs))
	for i, f := range fracs {
		q := lerpQuota(bounds, f)
		p := cand.Predict(load, q)
		preds[i] = p
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			fail("non-finite or non-positive prediction at box fraction %.2f", f)
		} else if p > cap {
			fail("prediction %.3fs at box fraction %.2f exceeds cap %.3fs", p, f, cap)
		}
	}

	// Gate 4: monotone tendency. More CPU along the diagonal must not
	// predict more latency beyond the tolerance — the paper's Figure 6
	// surface is monotone non-increasing in quota, and the solver's
	// gradient descent relies on it.
	for i := 1; i < len(preds); i++ {
		if preds[i] > preds[i-1]*(1+monotoneTol) {
			fail("non-monotone: pred rises %.3fs→%.3fs from box fraction %.2f to %.2f",
				preds[i-1], preds[i], fracs[i-1], fracs[i])
		}
	}

	// Gate 5: gradient-sign sanity at the operating point. The summed
	// ∂latency/∂quota must be non-positive within tolerance: if the model
	// claims that adding CPU raises latency, the solver would *remove* CPU
	// to "fix" a violation.
	if len(samples) > 0 {
		op := samples[len(samples)-1].Quota
		pred, dq := cand.PredictGrad(load, op)
		sum := 0.0
		for _, d := range dq {
			sum += d
		}
		// Tolerance scaled to the surface: a per-millicore slope budget of
		// monotoneTol×pred over a 1000-millicore sweep.
		if tol := monotoneTol * pred / 1000; sum > tol {
			fail("gradient-sign: Σ∂latency/∂quota = %.2e > %.2e", sum, tol)
		}
	}

	g.Pass = len(g.Reasons) == 0
	return g
}

// medianLoad returns the per-service median load vector over the samples, or
// a zero vector when there are none.
func medianLoad(samples []gnn.Sample, n int) []float64 {
	out := make([]float64, n)
	if len(samples) == 0 {
		return out
	}
	col := make([]float64, 0, len(samples))
	for i := 0; i < n; i++ {
		col = col[:0]
		for _, s := range samples {
			if i < len(s.Load) {
				col = append(col, s.Load[i])
			}
		}
		out[i] = metrics.Median(col)
	}
	return out
}

// lerpQuota interpolates the quota vector along the bounds box diagonal.
func lerpQuota(b core.Bounds, f float64) []float64 {
	q := make([]float64, len(b.Lo))
	for i := range q {
		q[i] = b.Lo[i] + f*(b.Hi[i]-b.Lo[i])
	}
	return q
}
