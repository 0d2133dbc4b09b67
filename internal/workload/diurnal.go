package workload

import (
	"math"
	"math/rand"
)

// DiurnalConfig parameterizes a seeded diurnal-seasonality rate series: a
// sinusoidal day/night cycle with multiplicative AR(1) noise, the workload
// shape the forecasting experiment proves itself on. The series is a pure
// function of the config — same seed, same bytes — so benchmarks and the
// fleet experiment can share one deterministic surge schedule.
type DiurnalConfig struct {
	// Seed drives the noise stream. 0 picks 1.
	Seed int64

	// Seconds is the series length; one value per second. 0 picks 1800.
	Seconds int

	// PeriodS is the diurnal period in seconds — compressed from 24 h to
	// something a simulation can traverse several times. 0 picks 300.
	PeriodS float64

	// Base and Amp set the mean rate and the sinusoid's amplitude (req/s):
	// the clean cycle swings between Base−Amp and Base+Amp. Base 0 picks
	// 150; Amp 0 picks 100.
	Base float64
	Amp  float64

	// Noise is the σ of the multiplicative AR(1) disturbance. 0 picks
	// 0.03; negative disables noise entirely (the golden tests' clean
	// variant).
	Noise float64

	// Phase shifts the cycle start in radians — 0 starts at the mean
	// heading up, π/2 at the peak.
	Phase float64
}

func (c DiurnalConfig) withDefaults() DiurnalConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Seconds <= 0 {
		c.Seconds = 1800
	}
	if c.PeriodS <= 0 {
		c.PeriodS = 300
	}
	if c.Base == 0 {
		c.Base = 150
	}
	if c.Amp == 0 {
		c.Amp = 100
	}
	if c.Noise == 0 {
		c.Noise = 0.03
	}
	return c
}

// Diurnal generates the per-second rate series for cfg.
func Diurnal(cfg DiurnalConfig) []float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.Seconds)
	ar := 0.0
	for i := range out {
		t := float64(i)
		clean := cfg.Base + cfg.Amp*math.Sin(2*math.Pi*t/cfg.PeriodS+cfg.Phase)
		if cfg.Noise > 0 {
			// AR(1) multiplicative noise: persistent enough to look like
			// real demand wobble, not i.i.d. jitter the Hampel filter or a
			// rate window would erase.
			ar = 0.8*ar + cfg.Noise*rng.NormFloat64()
			clean *= 1 + ar
		}
		if clean < 0 {
			clean = 0
		}
		out[i] = clean
	}
	return out
}

// SeriesRate converts a per-second rate series into an open-loop rate
// function, holding each sample for stepS seconds (stepS ≤ 0 picks 1).
// Before the series starts or after it ends the rate is 0, matching
// TraceRate's convention.
func SeriesRate(series []float64, stepS float64) func(float64) float64 {
	if stepS <= 0 {
		stepS = 1
	}
	return func(t float64) float64 {
		if t < 0 {
			return 0
		}
		idx := int(t / stepS)
		if idx >= len(series) {
			return 0
		}
		return series[idx]
	}
}
