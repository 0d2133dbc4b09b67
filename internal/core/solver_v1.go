package core

import (
	"math"

	"graf/internal/nn"
)

// solveV1 is solver version 1, kept exactly as it shipped: Eq. 5's penalty
// loss
//
//	Loss(r) = Σᵢ rᵢ + ρ·max(0, L(w, r) − SLO)
//
// descended by Adam for MaxIters iterations in kilocores, the learning rate
// cut to a fifth at half the budget and to a twenty-fifth at three quarters,
// with an early exit on a calm loss EMA (Tolerance, PatienceIters) that in
// practice never fires. It is reached only through a SolverConfig or audit
// header that names version 1: old logs replay under it, the decision
// digests recorded at cd08a14 pin the controller kernel through it, and the
// optimality-gap harness measures version 2 against it. Iterations counts
// loop iterations (one PredictGrad each); the final Predict is not counted.
func solveV1(_ *workspace, m LatencyModel, load []float64, sloSeconds float64, lo, hi []float64, cfg SolverConfig, start []float64) Solution {
	n := len(load)
	// Variables in kilocores, starting at the top of the box where
	// predicted latency is lowest — or at the caller's warm start.
	x := make([]float64, n)
	for i := range x {
		x[i] = hi[i] / 1000
	}
	if len(start) == n {
		for i := range x {
			s := start[i]
			if s < lo[i] {
				s = lo[i]
			}
			if s > hi[i] {
				s = hi[i]
			}
			x[i] = s / 1000
		}
	}
	quotas := make([]float64, n)
	toQuotas := func() {
		for i := range x {
			q := x[i] * 1000
			if q < lo[i] {
				q = lo[i]
			}
			if q > hi[i] {
				q = hi[i]
			}
			quotas[i] = q
		}
	}

	opt := nn.NewVecAdam(cfg.LR, n)
	grad := make([]float64, n)
	// Convergence is detected on an exponentially smoothed loss: Adam's
	// normalized steps oscillate around the optimum with amplitude ≈ LR,
	// so the raw per-iteration delta never shrinks, but its mean does.
	ema, prevEMA := math.Inf(1), math.Inf(1)
	calm := 0
	sol := Solution{}
	var lastLoss float64
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Decay the step size over the run so the descent settles at the
		// SLO boundary instead of oscillating across it.
		if iter == cfg.MaxIters/2 {
			opt.LR = cfg.LR * 0.2
		}
		if iter == cfg.MaxIters*3/4 {
			opt.LR = cfg.LR * 0.04
		}
		toQuotas()
		lat, dq := m.PredictGrad(load, quotas)
		loss := 0.0
		for i := range quotas {
			loss += quotas[i] / 1000
		}
		viol := lat - sloSeconds
		for i := range grad {
			grad[i] = 1 // d(Σ r)/dx in kilocores
			if viol > 0 {
				grad[i] += cfg.Rho * dq[i] * 1000 // dq is per millicore
			}
		}
		if viol > 0 {
			loss += cfg.Rho * viol
		}
		opt.Step(x, grad)
		// Project into the box (in kilocores).
		for i := range x {
			if x[i] < lo[i]/1000 {
				x[i] = lo[i] / 1000
			}
			if x[i] > hi[i]/1000 {
				x[i] = hi[i] / 1000
			}
		}
		sol.Iterations = iter + 1
		lastLoss = loss
		if math.IsInf(ema, 1) {
			ema = loss
		} else {
			ema = 0.9*ema + 0.1*loss
		}
		if math.Abs(ema-prevEMA) < cfg.Tolerance {
			calm++
			if calm >= cfg.PatienceIters {
				sol.Converged = true
				break
			}
		} else {
			calm = 0
		}
		prevEMA = ema
	}
	toQuotas()
	sol.Quotas = append([]float64(nil), quotas...)
	sol.Predicted = m.Predict(load, quotas)
	for _, q := range quotas {
		sol.TotalQuota += q
	}
	sol.Loss = lastLoss
	return sol
}
