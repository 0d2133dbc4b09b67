package core

import (
	"math"
	"math/rand"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/gnn"
	"graf/internal/queueing"
	"graf/internal/sim"
	"graf/internal/workload"
)

// Measurer abstracts "deploy a resource configuration, generate load,
// collect latency" — the unit of work of the sample-collection procedure
// (§5, Sample Collection and Training). Two implementations are provided:
// SimMeasurer runs the discrete-event cluster; AnalyticMeasurer evaluates
// the queueing fast path with calibrated noise (see DESIGN.md §4).
type Measurer interface {
	// MeasureSelf returns the tail self-latency (seconds; queue+service)
	// of service svc under per-service quotas and total frontend rate.
	MeasureSelf(svc string, quotas map[string]float64, totalRate float64) float64
	// MeasureE2E returns the end-to-end tail latency (seconds).
	MeasureE2E(quotas map[string]float64, totalRate float64) float64
}

// AnalyticMeasurer labels configurations with the analytic queueing
// approximation plus multiplicative lognormal noise — the fast path for
// bulk sample collection.
type AnalyticMeasurer struct {
	App      *app.App
	Sizing   queueing.Sizing
	Quantile float64 // tail percentile, e.g. 0.99
	Noise    float64 // σ of multiplicative lognormal noise (0 = exact)
	rng      *rand.Rand
}

// NewAnalyticMeasurer returns a p99 analytic measurer with noise sigma.
func NewAnalyticMeasurer(a *app.App, noise float64, seed int64) *AnalyticMeasurer {
	return &AnalyticMeasurer{
		App: a, Sizing: queueing.DefaultSizing(), Quantile: 0.99,
		Noise: noise, rng: rand.New(rand.NewSource(seed)),
	}
}

func (m *AnalyticMeasurer) rates(totalRate float64) map[string]float64 {
	return m.App.PerServiceRate(m.App.MixRates(totalRate))
}

func (m *AnalyticMeasurer) noisy(v float64) float64 {
	if m.Noise <= 0 {
		return v
	}
	return v * math.Exp(m.Noise*m.rng.NormFloat64())
}

// MeasureSelf implements Measurer.
func (m *AnalyticMeasurer) MeasureSelf(svc string, quotas map[string]float64, totalRate float64) float64 {
	s := m.App.Services[m.App.ServiceIndex(svc)]
	return m.noisy(queueing.ServiceQuantile(s, m.Sizing, quotas[svc], m.rates(totalRate)[svc], m.Quantile))
}

// MeasureE2E implements Measurer.
func (m *AnalyticMeasurer) MeasureE2E(quotas map[string]float64, totalRate float64) float64 {
	return m.noisy(queueing.WorstAPIQuantile(m.App, m.Sizing, quotas, m.rates(totalRate), m.Quantile))
}

// SimMeasurer labels configurations by actually running the discrete-event
// cluster: apply quotas, generate open-loop load, measure the tail over a
// collection window — the paper's procedure of "applying resource
// configuration, generating load, collecting latency, and initialization".
type SimMeasurer struct {
	App      *app.App
	Cfg      cluster.Config
	Quantile float64
	WarmupS  float64 // settle time before the measurement window (paper: 5 s init)
	WindowS  float64 // measurement window (paper: 10 s)
	seed     int64
}

// NewSimMeasurer returns a p99 simulation measurer. Instance startup is
// zeroed: sample collection waits for configurations to be fully deployed
// before measuring, so startup time would only waste simulated time.
func NewSimMeasurer(a *app.App, seed int64) *SimMeasurer {
	cfg := cluster.DefaultConfig()
	cfg.StartupBaseS, cfg.StartupSlopeS = 0, 0
	return &SimMeasurer{App: a, Cfg: cfg, Quantile: 0.99, WarmupS: 5, WindowS: 10, seed: seed}
}

func (m *SimMeasurer) run(reads cluster.Signal, quotas map[string]float64, totalRate float64) *cluster.Cluster {
	m.seed++
	return m.runSeeded(m.seed, reads, quotas, totalRate)
}

// runSeeded runs one measurement; reads is the signal the caller's
// measurement reads.
func (m *SimMeasurer) runSeeded(seed int64, reads cluster.Signal, quotas map[string]float64, totalRate float64) *cluster.Cluster {
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, m.App, m.Cfg)
	// Keep only the window a measurement reads: Calibrate runs two at once.
	cl.DeclareLookback(reads, m.WindowS)
	cl.ApplyQuotas(quotas)
	eng.RunUntil(1)
	g := workload.NewOpenLoop(cl, workload.ConstRate(totalRate))
	g.Start()
	eng.RunUntil(1 + m.WarmupS + m.WindowS)
	g.Stop()
	return cl
}

// MeasureSelf implements Measurer.
func (m *SimMeasurer) MeasureSelf(svc string, quotas map[string]float64, totalRate float64) float64 {
	cl := m.run(cluster.SelfLatency, quotas, totalRate)
	return cl.Deployment(svc).SelfLatencyQuantile(m.Quantile, m.WindowS)
}

// MeasureE2E implements Measurer.
func (m *SimMeasurer) MeasureE2E(quotas map[string]float64, totalRate float64) float64 {
	cl := m.run(cluster.E2ELatency, quotas, totalRate)
	return cl.E2ELatencyQuantile(m.Quantile, m.WindowS)
}

// measureE2EAt returns what the MeasureE2E call n calls from now (n = 0: the
// next) would return, without advancing m: its run is seeded by n alone, so
// such calls may run concurrently and in any order.
func (m *SimMeasurer) measureE2EAt(n int, quotas map[string]float64, totalRate float64) float64 {
	return m.runSeeded(m.seed+1+int64(n), cluster.E2ELatency, quotas, totalRate).E2ELatencyQuantile(m.Quantile, m.WindowS)
}

// SampleCollector is the state-aware sample collector (§3.7): it bounds the
// per-microservice search space with Algorithm 1 and draws training samples
// only inside the reduced region.
type SampleCollector struct {
	App *app.App
	M   Measurer

	SLO       float64 // end-to-end latency SLO (seconds), Algorithm 1's lower-bound test
	HighQuota float64 // "sufficient CPU" initialization (millicores)
	MinQuota  float64 // absolute floor of the sweep
	Step      float64 // quota reduction step (millicores)
	RiseTol   float64 // relative rise over TL_i that defines the upper bound

	// ProbeRate is the total frontend rate used to probe the upper bound
	// (latency plateau): it must be the heaviest workload the solver will
	// face, or the plateau sits too low. ProbeRateLo is the rate for the
	// lower bound (minimum viable quota): the lightest workload, or light
	// traffic can never shed quota. Zero ProbeRateLo reuses ProbeRate.
	ProbeRate   float64
	ProbeRateLo float64

	// MaxLatency discards samples whose measured end-to-end tail exceeds
	// it (seconds; 0 = keep everything). The state-aware collector's whole
	// point is to avoid "unnecessary resource regions" (§3.7) — deeply
	// saturated configurations teach the model nothing about the SLO
	// region while dominating the loss.
	MaxLatency float64

	Seed int64
}

// NewSampleCollector returns a collector with the defaults used in the
// evaluation: sufficient CPU 3000 mc, 50 mc steps, 15% rise tolerance.
func NewSampleCollector(a *app.App, m Measurer, sloSeconds, probeRate float64) *SampleCollector {
	return &SampleCollector{
		App: a, M: m, SLO: sloSeconds,
		HighQuota: 3000, MinQuota: 50, Step: 50,
		RiseTol: 0.15, ProbeRate: probeRate, Seed: 1,
	}
}

// Bounds holds Algorithm 1's per-service search-space bounds.
type Bounds struct {
	Lo, Hi []float64 // indexed like App.Services, millicores
}

// VolumeRatio returns Π(Hi−Lo) / Π(high−min): the reduced-to-original
// search-space volume ratio reported in §5.1 (2.7×10⁻⁴ for Online
// Boutique).
func (sc *SampleCollector) VolumeRatio(b Bounds) float64 {
	ratio := 1.0
	full := sc.HighQuota - sc.MinQuota
	for i := range b.Lo {
		ratio *= (b.Hi[i] - b.Lo[i]) / full
	}
	return ratio
}

// ReduceSearchSpace implements Algorithm 1. Every microservice starts with
// sufficient CPU; per service the quota is reduced step by step. The upper
// bound H_i is set where tail latency first rises above its plateau value
// TL_i (more CPU than H_i cannot reduce latency further); the lower bound
// L_i where the single service's tail latency alone exceeds the end-to-end
// SLO.
func (sc *SampleCollector) ReduceSearchSpace() Bounds {
	names := sc.App.ServiceNames()
	n := len(names)
	b := Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}

	sufficient := func() map[string]float64 {
		q := make(map[string]float64, n)
		for _, s := range names {
			q[s] = sc.HighQuota
		}
		return q
	}

	loRate := sc.ProbeRateLo
	if loRate <= 0 {
		loRate = sc.ProbeRate
	}

	// Baseline plateau latency TL_i with every service at sufficient CPU,
	// under the heaviest probe workload.
	base := sufficient()
	tl := make([]float64, n)
	for i, s := range names {
		tl[i] = sc.M.MeasureSelf(s, base, sc.ProbeRate)
	}

	for i, s := range names {
		// Upper bound: reduce under the heavy workload until latency
		// first rises off its plateau.
		quotas := sufficient()
		hi := sc.HighQuota
		for q := sc.HighQuota - sc.Step; q >= sc.MinQuota; q -= sc.Step {
			quotas[s] = q
			if sc.M.MeasureSelf(s, quotas, sc.ProbeRate) > tl[i]*(1+sc.RiseTol) {
				hi = q + sc.Step
				break
			}
		}
		// Lower bound: reduce under the lightest workload until this
		// service's tail alone exceeds the end-to-end SLO.
		quotas = sufficient()
		lo := sc.MinQuota
		for q := hi; q >= sc.MinQuota; q -= sc.Step {
			quotas[s] = q
			if sc.M.MeasureSelf(s, quotas, loRate) > sc.SLO {
				lo = q + sc.Step
				break
			}
		}
		if hi <= lo {
			hi = lo + sc.Step
		}
		b.Lo[i], b.Hi[i] = lo, hi
	}
	return b
}

// Collect draws n samples: uniform-random quotas inside the reduced bounds
// paired with a uniform-random total frontend rate in [rateLo, rateHi], each
// labeled with the measured end-to-end tail latency. Load vectors use the
// application's declared visit multiplicities (the offline collector knows
// the workload it generates).
func (sc *SampleCollector) Collect(n int, rateLo, rateHi float64, b Bounds) []gnn.Sample {
	rng := rand.New(rand.NewSource(sc.Seed))
	names := sc.App.ServiceNames()
	out := make([]gnn.Sample, 0, n)
	for attempts := 0; len(out) < n && attempts < 60*n; attempts++ {
		total := rateLo + rng.Float64()*(rateHi-rateLo)
		rates := sc.App.PerServiceRate(sc.App.MixRates(total))
		quotas := make(map[string]float64, len(names))
		load := make([]float64, len(names))
		quota := make([]float64, len(names))
		for i, s := range names {
			q := b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
			quotas[s] = q
			quota[i] = q
			load[i] = rates[s]
		}
		lat := sc.M.MeasureE2E(quotas, total)
		if lat <= 0 || (sc.MaxLatency > 0 && lat > sc.MaxLatency) {
			continue
		}
		out = append(out, gnn.Sample{Load: load, Quota: quota, Latency: lat})
	}
	return out
}
