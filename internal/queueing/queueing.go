// Package queueing provides closed-form queueing approximations of the
// cluster simulator: M/M/c waiting-time tails per microservice composed
// along the application's call tree (sums for sequential stages, maxes for
// parallel calls).
//
// Two uses: (1) a fast path for bulk training-sample generation — evaluating
// one (workload, quota) configuration analytically is ~10⁴× cheaper than
// simulating a 10-second window — and (2) an independent oracle that
// property tests check the discrete-event simulator against at moderate
// load. The approximation composes per-hop latency quantiles directly,
// which is exactly the kind of shortcut the paper says fails to capture the
// real surface (§3) — hence the GNN — but it preserves monotonicity and
// convexity in each service's quota, which is what the fast path needs.
package queueing

import (
	"math"

	"graf/internal/app"
)

// Sizing mirrors the cluster's quota→replica realization (Eq. 7).
type Sizing struct {
	CPUUnit  float64 // millicores per instance
	MinQuota float64 // floor on per-instance quota
}

// DefaultSizing matches cluster.DefaultConfig.
func DefaultSizing() Sizing { return Sizing{CPUUnit: 250, MinQuota: 10} }

// Split realizes a total quota as (replicas, per-instance quota) with the
// paper's round-up semantics (Eq. 7): above one CPU unit, every instance
// runs at the full unit and the realized total ceil(quota/unit)×unit
// overprovisions by at most one unit; below one unit a single instance is
// vertically sized, which keeps latency-vs-quota continuous and strictly
// monotone there (the regime of Fig 6's sweeps).
func (s Sizing) Split(quota float64) (int, float64) {
	if quota < s.MinQuota {
		quota = s.MinQuota
	}
	if quota <= s.CPUUnit {
		return 1, quota
	}
	n := int(math.Ceil(quota / s.CPUUnit))
	return n, s.CPUUnit
}

// erlangC returns the probability that an arrival must wait in an M/M/c
// queue with offered load a = λ·E[S] Erlangs. It returns 1 when a ≥ c
// (saturation).
func erlangC(c int, a float64) float64 {
	if c < 1 || a <= 0 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	// Iterative Erlang B, then convert to Erlang C: numerically stable.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// mmc models one service tier.
type mmc struct {
	Lambda  float64 // arrivals/s
	Service float64 // mean service time, seconds
	C       int     // servers
}

// Utilization returns λ·E[S]/c.
func (m mmc) Utilization() float64 {
	if m.C < 1 {
		return math.Inf(1)
	}
	return m.Lambda * m.Service / float64(m.C)
}

// WaitQuantile returns the q-quantile of the queueing delay: zero with
// probability 1-Pw, exponential with rate c(1-ρ)/E[S] otherwise.
func (m mmc) WaitQuantile(q float64) float64 {
	rho := m.Utilization()
	if rho >= 1 {
		// Saturated: report a delay that grows with overload so optimizers
		// see a finite, steep gradient rather than +Inf.
		return m.Service * 100 * rho
	}
	pw := erlangC(m.C, m.Lambda*m.Service)
	if q <= 1-pw {
		return 0
	}
	rate := float64(m.C) * (1 - rho) / m.Service
	return math.Log(pw/(1-q)) / rate
}

// probit returns the standard normal quantile via the Beasley-Springer-Moro
// approximation (|error| < 3e-9 over (0,1)).
func probit(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("queueing: probit domain")
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// lognormQuantile returns the q-quantile of a lognormal with the given mean
// and coefficient of variation. CV ≤ 0 degenerates to the mean.
func lognormQuantile(mean, cv, q float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*probit(q))
}

// ServiceQuantile returns the q-quantile of one invocation's self latency
// (queue + service, seconds) for service svc at total quota (millicores) and
// per-service arrival rate lambda (req/s).
func ServiceQuantile(svc app.Service, sz Sizing, quota, lambda, q float64) float64 {
	c, per := sz.Split(quota)
	meanSvc := (svc.BaseMS + svc.WorkMS*1000/per) / 1000
	m := mmc{Lambda: lambda, Service: meanSvc, C: c}
	svcQ := (svc.BaseMS + lognormQuantile(svc.WorkMS*1000/per, svc.CV, q)) / 1000
	return m.WaitQuantile(q) + svcQ
}

// e2eQuantile approximates the q-quantile of end-to-end latency (seconds)
// for one API given per-service quotas and per-service arrival rates. It
// composes per-hop quantiles: sums across sequential stages/repetitions,
// maxes across parallel calls — an upper-biased approximation.
func e2eQuantile(a *app.App, api string, sz Sizing, quotas, rates map[string]float64, q float64) float64 {
	ap := a.API(api)
	if ap == nil {
		return 0
	}
	var eval func(c *app.Call) float64
	eval = func(c *app.Call) float64 {
		svc := a.Services[a.ServiceIndex(c.Service)]
		self := ServiceQuantile(svc, sz, quotas[c.Service], rates[c.Service], q)
		stageSum := 0.0
		for _, stage := range c.Stages {
			stageMax := 0.0
			for _, child := range stage {
				if v := eval(child); v > stageMax {
					stageMax = v
				}
			}
			stageSum += stageMax
		}
		return float64(c.Times()) * (self + stageSum)
	}
	return eval(ap.Root)
}

// WorstAPIQuantile returns the maximum e2eQuantile across the application's
// APIs weighted presence in mix — the paper's SLO applies to the end-to-end
// latency of the application, so the binding API is the slowest one.
func WorstAPIQuantile(a *app.App, sz Sizing, quotas, rates map[string]float64, q float64) float64 {
	worst := 0.0
	for _, ap := range a.APIs {
		if v := e2eQuantile(a, ap.Name, sz, quotas, rates, q); v > worst {
			worst = v
		}
	}
	return worst
}
