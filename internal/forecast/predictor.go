package forecast

import "math"

// Config parameterizes a Predictor. The zero value of every field picks a
// sensible default; Enabled gates the whole subsystem so a zero Config is
// "forecasting off".
type Config struct {
	// Enabled turns the forecaster on. Off, the controller runs the
	// paper-exact reactive loop.
	Enabled bool

	// Model selects the predictor: "hw" (Holt-Winters seasonal, the
	// default), "ar" (autoregressive OLS), or "naive" (last value — the
	// baseline, equivalent to reactive plus the risk band).
	Model string

	// HorizonTicks is how many decision intervals ahead the controller
	// solves. 0 picks 3 — at the default 5 s interval that is 15 s of
	// lead, enough to cover the Figure-1 startup latency of a typical
	// scale-up batch.
	HorizonTicks int

	// Quantile is the risk-adjusted provisioning quantile: the solver is
	// fed forecast + z(Quantile)·σ of recent residuals, so capacity covers
	// the upper band of likely demand rather than the point estimate.
	// 0 picks 0.95.
	Quantile float64

	// PeriodTicks is the Holt-Winters seasonal period in decision ticks.
	// 0 picks 24.
	PeriodTicks int

	// Alpha, Beta, Gamma are the Holt-Winters smoothing factors (0 picks
	// 0.5 / 0.1 / 0.3).
	Alpha, Beta, Gamma float64

	// ARLag is the AR model order. 0 picks 8.
	ARLag int

	// ResidWindow is how many matured residuals the σ estimate uses.
	// 0 picks 32.
	ResidWindow int

	// MinResiduals is how many matured residuals must exist before the
	// quantile band (and the blowout detector) are trusted. 0 picks 6.
	MinResiduals int

	// BlowoutRatio degrades the forecaster to reactive when the residual
	// σ exceeds this fraction of the smoothed observed rate — a model that
	// is mis-forecasting must fall back to today's behavior, not amplify
	// its own error into the solver. Re-arms at 70% of the trip point
	// (hysteresis, so a borderline σ does not flap). 0 picks 0.35;
	// negative disables the detector.
	BlowoutRatio float64

	// Hampel overrides the K/Floor/N of the input sanitizer (the Ring is
	// owned by the predictor). Zero fields pick the Hampel defaults.
	Hampel Hampel
}

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = "hw"
	}
	if c.HorizonTicks <= 0 {
		c.HorizonTicks = 3
	}
	if c.Quantile <= 0 {
		c.Quantile = 0.95
	}
	if c.PeriodTicks <= 0 {
		c.PeriodTicks = 24
	}
	if c.ResidWindow <= 0 {
		c.ResidWindow = 32
	}
	if c.MinResiduals <= 0 {
		c.MinResiduals = 6
	}
	if c.BlowoutRatio == 0 {
		c.BlowoutRatio = 0.35
	}
	return c
}

// Pending is a forecast awaiting maturation: made for the observation with
// index Due, carrying the risk-unadjusted point value.
type Pending struct {
	Due   int64
	Point float64
}

// Matured is a forecast whose target tick has arrived, paired with what the
// rate actually did — the forecast/actual audit trail.
type Matured struct {
	Predicted float64
	Actual    float64
}

// Prediction is one horizon forecast with its uncertainty band.
type Prediction struct {
	Point float64 // point forecast at the horizon
	Sigma float64 // std dev of recent matured residuals (0 until MinResiduals)
	Upper float64 // Point + z(Quantile)·Sigma — the rate fed to the solver
	OK    bool    // model had enough history to forecast
}

// Predictor composes a forecaster with input sanitization, residual
// tracking, a risk-adjusted provisioning quantile, and a blowout detector
// that degrades the subsystem to reactive when forecasts stop matching
// reality. Every field is exported and free of pointers into shared state,
// so the whole predictor gob-encodes inside ControllerState and a restored
// copy resumes bit-identically.
//
// Not safe for concurrent use; the owning controller serializes access.
type Predictor struct {
	Cfg Config

	// Exactly one model is non-nil, selected by Cfg.Model.
	HW *HoltWinters
	AM *AR
	NV *Naive

	// Ham sanitizes raw observed rates before the model sees them: a
	// telemetry blackhole reading zero, or a corrupt spike, is replaced by
	// the window median instead of being learned as demand.
	Ham Hampel

	Ticks    int64     // observations consumed
	Pend     []Pending // forecasts awaiting their target tick
	Resid    []float64 // matured residual ring (actual − predicted)
	EW       float64   // EWMA of the sanitized rate — the blowout reference
	EWInit   bool
	Blown    bool // blowout detector state (hysteresis)
	Made     int64
	MaturedN int64
	AbsErr   float64 // Σ|residual| over matured forecasts, for the MAE metric
}

// NewPredictor builds a predictor for cfg (defaults applied).
func NewPredictor(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	p := &Predictor{Cfg: cfg, Ham: Hampel{K: cfg.Hampel.K, Floor: cfg.Hampel.Floor, N: cfg.Hampel.N}}
	switch cfg.Model {
	case "ar":
		p.AM = &AR{P: cfg.ARLag}
	case "naive":
		p.NV = &Naive{}
	default:
		p.HW = &HoltWinters{Alpha: cfg.Alpha, Beta: cfg.Beta, Gamma: cfg.Gamma, PeriodTicks: cfg.PeriodTicks}
	}
	return p
}

func (p *Predictor) model() forecaster {
	switch {
	case p.HW != nil:
		return p.HW
	case p.AM != nil:
		return p.AM
	default:
		return p.NV
	}
}

// ModelName returns the active model's name.
func (p *Predictor) ModelName() string { return p.model().Name() }

// Observe consumes one raw observed rate: sanitizes it, matures any
// forecasts whose target tick this is (feeding the residual ring and the
// blowout detector), and advances the model. It returns the sanitized value
// and the forecasts that matured against it.
func (p *Predictor) Observe(raw float64) (sanitized float64, matured []Matured) {
	v := p.Ham.Push(raw)
	for len(p.Pend) > 0 && p.Pend[0].Due <= p.Ticks {
		if p.Pend[0].Due == p.Ticks {
			r := v - p.Pend[0].Point
			if len(p.Resid) >= p.Cfg.ResidWindow {
				copy(p.Resid, p.Resid[1:])
				p.Resid = p.Resid[:len(p.Resid)-1]
			}
			p.Resid = append(p.Resid, r)
			p.MaturedN++
			p.AbsErr += fabs(r)
			matured = append(matured, Matured{Predicted: p.Pend[0].Point, Actual: v})
		}
		p.Pend = p.Pend[1:]
	}
	if !p.EWInit {
		p.EW, p.EWInit = v, true
	} else {
		// Deliberately slow (memory ≈ one seasonal period at the defaults):
		// the blowout ratio's denominator must estimate the workload's level,
		// not chase its cycle — a fast tracker dips at every trough and trips
		// the detector on residuals that are perfectly normal.
		p.EW = 0.05*v + 0.95*p.EW
	}
	p.updateBlowout()
	p.model().Observe(v)
	p.Ticks++
	return v, matured
}

// updateBlowout runs the residual blowout detector with hysteresis: trip
// when σ exceeds BlowoutRatio of the smoothed rate, re-arm at 70% of the
// trip point.
func (p *Predictor) updateBlowout() {
	if p.Cfg.BlowoutRatio < 0 || len(p.Resid) < p.Cfg.MinResiduals {
		p.Blown = false
		return
	}
	ref := p.EW
	if ref < 1 {
		ref = 1 // below ~1 rps any σ ratio is noise, not signal
	}
	ratio := p.Sigma() / ref
	if p.Blown {
		if ratio < 0.7*p.Cfg.BlowoutRatio {
			p.Blown = false
		}
	} else if ratio > p.Cfg.BlowoutRatio {
		p.Blown = true
	}
}

// Sigma returns the standard deviation of the matured residual ring (0
// until MinResiduals have matured).
func (p *Predictor) Sigma() float64 {
	if len(p.Resid) < p.Cfg.MinResiduals {
		return 0
	}
	mean := 0.0
	for _, r := range p.Resid {
		mean += r
	}
	mean /= float64(len(p.Resid))
	ss := 0.0
	for _, r := range p.Resid {
		d := r - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(p.Resid)))
}

// Predict forecasts the rate HorizonTicks ahead and registers the forecast
// for maturation. Call exactly once per Observe — the controller does, on
// every collect-passing tick, whether or not the forecast ends up driving
// the solve, so live, folded, and restored predictors walk identical state.
func (p *Predictor) Predict() Prediction {
	m := p.model()
	if !m.Ready() {
		return Prediction{}
	}
	h := p.Cfg.HorizonTicks
	pt := m.Forecast(h)
	// The forecast targets the observation h ticks after the one just
	// consumed: due when Ticks reaches current+h−1 at Observe entry.
	p.Pend = append(p.Pend, Pending{Due: p.Ticks + int64(h) - 1, Point: pt})
	p.Made++
	sig := p.Sigma()
	up := pt + zScore(p.Cfg.Quantile)*sig
	if up < 0 {
		up = 0
	}
	return Prediction{Point: pt, Sigma: sig, Upper: up, OK: true}
}

// Healthy reports whether forecasts may drive the solver: false while the
// residual blowout detector is tripped.
func (p *Predictor) Healthy() bool { return !p.Blown }

// MAE returns the mean absolute error over all matured forecasts.
func (p *Predictor) MAE() float64 {
	if p.MaturedN == 0 {
		return 0
	}
	return p.AbsErr / float64(p.MaturedN)
}

// Clone deep-copies the predictor — snapshot isolation for checkpointing.
func (p *Predictor) Clone() *Predictor {
	if p == nil {
		return nil
	}
	q := *p
	q.Ham.Ring = append([]float64(nil), p.Ham.Ring...)
	q.Pend = append([]Pending(nil), p.Pend...)
	q.Resid = append([]float64(nil), p.Resid...)
	if p.HW != nil {
		hw := *p.HW
		hw.Season = append([]float64(nil), p.HW.Season...)
		hw.Boot = append([]float64(nil), p.HW.Boot...)
		q.HW = &hw
	}
	if p.AM != nil {
		am := *p.AM
		am.Hist = append([]float64(nil), p.AM.Hist...)
		q.AM = &am
	}
	if p.NV != nil {
		nv := *p.NV
		q.NV = &nv
	}
	return &q
}

// zScore returns the standard-normal quantile z with P(Z ≤ z) = q, via the
// stdlib inverse error function.
func zScore(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		q = 0.9999
	}
	return math.Sqrt2 * math.Erfinv(2*q-1)
}

// HorizonForStartup returns the forecast horizon (in decision ticks of
// intervalS seconds) that covers the Figure-1 startup latency of an
// n-instance scale-up batch: instances ordered at the forecast instant are
// ready by the time the forecasted demand lands. base and slope are the
// cluster's startup-curve parameters (the j-th instance of a batch becomes
// ready after base + j·slope seconds).
func HorizonForStartup(base, slope float64, n int, intervalS float64) int {
	if n < 1 {
		n = 1
	}
	if intervalS <= 0 {
		return 1
	}
	ready := base + float64(n)*slope
	h := int(math.Ceil(ready / intervalS))
	if h < 1 {
		h = 1
	}
	return h
}
