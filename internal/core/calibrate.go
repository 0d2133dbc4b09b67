package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"graf/internal/app"
)

// calibration maps analytic end-to-end labels onto the simulator's scale
// with a log-linear fit ln(sim) = A + B·ln(analytic). A single scalar ratio
// is not enough: in well-provisioned regions the analytic sum-of-quantiles
// composition over-estimates the simulator (ratio ≈ 0.5) while near the SLO
// boundary queueing correlations push the ratio above 1 — and the boundary
// is exactly where the solver operates.
type calibration struct {
	A, B float64
}

// Apply maps one analytic latency (seconds) onto the calibrated scale.
func (c calibration) Apply(analytic float64) float64 {
	if analytic <= 0 {
		return analytic
	}
	return math.Exp(c.A + c.B*math.Log(analytic))
}

// calibrate fits the log-linear map from probe configurations spanning the
// whole search space and workload range, discarding probes where either
// measurer saturates beyond maxLat (their ratios are artifacts of the
// analytic saturation penalty). Every attempted probe costs one analytic
// measurement and one simulator run; attempts go on until probes are kept or
// 5·probes were made. The simulator runs go in parallel, in batches of as many
// attempts as probes are still missing: attempt p's run is seeded by p alone,
// as the serial loop's p-th run was, and kept probes enter the fit in attempt
// order, so the result does not depend on the schedule.
func calibrate(a *app.App, b Bounds, rateLo, rateHi, maxLat float64, probes int, seed int64) calibration {
	ident := calibration{A: 0, B: 1}
	if probes <= 0 {
		return ident
	}
	ana := NewAnalyticMeasurer(a, 0, seed)
	simm := NewSimMeasurer(a, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	names := a.ServiceNames()
	var xs, ys []float64
	for p := 0; p < probes*5 && len(xs) < probes; {
		n := min(probes-len(xs), probes*5-p)
		quotas, rates, sims := make([]map[string]float64, n), make([]float64, n), make([]float64, n)
		for k := range quotas {
			quotas[k] = map[string]float64{}
			for i, s := range names {
				quotas[k][s] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
			}
			rates[k] = rateLo + rng.Float64()*(rateHi-rateLo)
		}
		eachParallel(n, func(k int) { sims[k] = simm.measureE2EAt(p+k, quotas[k], rates[k]) })
		for k, q := range quotas {
			av, sv := ana.MeasureE2E(q, rates[k]), sims[k]
			if av <= 0 || sv <= 0 || av > maxLat || sv > maxLat {
				continue
			}
			xs = append(xs, math.Log(av))
			ys = append(ys, math.Log(sv))
		}
		p += n
	}
	if len(xs) < 4 {
		return ident
	}
	return fitLogLinear(xs, ys)
}

// fitLogLinear is the ordinary least-squares fit of ys on xs in log space,
// with its slope clamped to [0.7, 2.5].
func fitLogLinear(xs, ys []float64) calibration {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return calibration{A: 0, B: 1}
	}
	bHat := (n*sxy - sx*sy) / den
	// A slope well below 1 compresses the label range and erases the
	// saturation gradient the solver needs; keep a floor on it.
	if bHat < 0.7 {
		bHat = 0.7
	}
	if bHat > 2.5 {
		bHat = 2.5
	}
	aHat := (sy - bHat*sx) / n
	return calibration{A: aHat, B: bHat}
}

// calibratedMeasurer applies a calibration to an AnalyticMeasurer's
// end-to-end labels, so bulk sample collection stays cheap while labels
// track what the simulator will actually measure.
type calibratedMeasurer struct {
	*AnalyticMeasurer
	Cal calibration
}

// MeasureE2E implements Measurer.
func (c calibratedMeasurer) MeasureE2E(quotas map[string]float64, totalRate float64) float64 {
	return c.Cal.Apply(c.AnalyticMeasurer.MeasureE2E(quotas, totalRate))
}

// eachParallel calls fn(k) for every k in [0, n) on up to GOMAXPROCS
// goroutines and returns when all calls have.
func eachParallel(n int, fn func(k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				fn(k)
			}
		}()
	}
	wg.Wait()
}
