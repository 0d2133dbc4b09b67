// Package forecast implements the workload-forecasting subsystem: stdlib
// time-series predictors over the windowed front-end rate history the
// controller already keeps. GRAF is proactive across the service *graph* —
// it allocates against the chained latency model — but the paper's loop is
// still reactive in *time*: it only moves after the observed rate has
// changed, so every surge eats the full Figure-1 instance-startup latency
// before new capacity is ready. The predictors here (Holt-Winters triple
// exponential smoothing for seasonal workloads, an AR(p) model fit by
// ordinary least squares, and a naive last-value baseline) let the
// controller solve against the forecasted rate at a configurable horizon
// instead, so instances ordered now are ready when the surge lands.
//
// Every model keeps its complete state in exported fields so the whole
// predictor gob-encodes through the existing checkpoint path and a warm
// restore resumes producing byte-identical forecasts. No model calls the
// clock or a random source: given the same observation sequence, forecasts
// are bit-reproducible, which is what lets the audit-tail fold rebuild
// forecaster state exactly from the recorded rates.
package forecast

// forecaster is a univariate point predictor over a regularly-ticked series.
type forecaster interface {
	// Observe consumes the next observation.
	Observe(v float64)
	// Forecast extrapolates h ticks past the last observation (h >= 1).
	Forecast(h int) float64
	// Ready reports whether the model has enough history to forecast at
	// all. Until then the controller stays on the reactive path.
	Ready() bool
	// Name identifies the model in records and metrics.
	Name() string
}

// Naive is the last-value baseline: tomorrow looks like right now. It is
// exactly the paper's implicit time model, made explicit so the benchmark
// can compare the real predictors against it.
type Naive struct {
	Last float64
	N    int64
}

// Observe consumes one observation.
func (nv *Naive) Observe(v float64) { nv.Last = v; nv.N++ }

// Forecast returns the last observation regardless of horizon.
func (nv *Naive) Forecast(h int) float64 { return nv.Last }

// Ready is true after the first observation.
func (nv *Naive) Ready() bool { return nv.N > 0 }

// Name identifies the model.
func (nv *Naive) Name() string { return "naive" }

// HoltWinters is additive triple exponential smoothing: a level, a trend,
// and one seasonal offset per tick of the period. During the first period
// it runs plain Holt's linear smoothing (no seasonals exist yet) and
// buffers the observations; once a full period has been seen the seasonals
// are initialized as deviations from the period mean and the triple update
// takes over.
type HoltWinters struct {
	// Alpha, Beta, Gamma are the level/trend/seasonal smoothing factors.
	// 0 picks the defaults 0.5 / 0.1 / 0.3.
	Alpha, Beta, Gamma float64

	// PeriodTicks is the seasonal period in ticks. 0 picks 24.
	PeriodTicks int

	// Smoothing state (exported for checkpointing).
	Level  float64
	Trend  float64
	Season []float64 // nil until one full period has been observed
	Boot   []float64 // first-period bootstrap buffer
	N      int64
}

func (hw *HoltWinters) params() (a, b, g float64, p int) {
	a, b, g, p = hw.Alpha, hw.Beta, hw.Gamma, hw.PeriodTicks
	if a <= 0 {
		a = 0.5
	}
	if b <= 0 {
		b = 0.1
	}
	if g <= 0 {
		g = 0.3
	}
	if p <= 0 {
		p = 24
	}
	return
}

// Observe consumes one observation.
func (hw *HoltWinters) Observe(v float64) {
	a, b, g, p := hw.params()
	if hw.Season == nil {
		// Bootstrapping: Holt's linear smoothing tracks level and trend so
		// cold-start forecasts are already trend-aware, while the buffer
		// accumulates the first period for seasonal initialization.
		if hw.N == 0 {
			hw.Level = v
		} else {
			prev := hw.Level
			hw.Level = a*v + (1-a)*(hw.Level+hw.Trend)
			hw.Trend = b*(hw.Level-prev) + (1-b)*hw.Trend
		}
		hw.Boot = append(hw.Boot, v)
		hw.N++
		if len(hw.Boot) == p {
			mean := 0.0
			for _, x := range hw.Boot {
				mean += x
			}
			mean /= float64(p)
			hw.Season = make([]float64, p)
			for i, x := range hw.Boot {
				hw.Season[i] = x - mean
			}
			hw.Boot = nil
		}
		return
	}
	idx := int(hw.N % int64(p))
	s := hw.Season[idx]
	prev := hw.Level
	hw.Level = a*(v-s) + (1-a)*(hw.Level+hw.Trend)
	hw.Trend = b*(hw.Level-prev) + (1-b)*hw.Trend
	hw.Season[idx] = g*(v-hw.Level) + (1-g)*s
	hw.N++
}

// Forecast extrapolates level + h·trend plus the seasonal offset of the
// target tick, clamped at zero (a rate cannot be negative).
func (hw *HoltWinters) Forecast(h int) float64 {
	if hw.N == 0 {
		return 0
	}
	if h < 1 {
		h = 1
	}
	_, _, _, p := hw.params()
	f := hw.Level + float64(h)*hw.Trend
	if hw.Season != nil {
		f += hw.Season[int((hw.N+int64(h)-1)%int64(p))]
	}
	if f < 0 {
		f = 0
	}
	return f
}

// Ready is true once a full seasonal period has been observed: forecasting
// a seasonal workload from less than one period means extrapolating the
// current slope into the next phase of the cycle — exactly wrong at every
// peak and trough — so cold starts stay reactive instead.
func (hw *HoltWinters) Ready() bool { return hw.Season != nil }

// Name identifies the model.
func (hw *HoltWinters) Name() string { return "hw" }

// AR is an autoregressive model of order P fit by ordinary least squares
// over a sliding history window. Each Forecast refits on the current
// window — the window is small and the fit is a (P+1)×(P+1) solve, cheap
// enough to live inside the decision loop — then iterates the fitted
// recurrence h steps forward.
type AR struct {
	// P is the autoregressive order. 0 picks 8.
	P int

	// WindowTicks caps the fitting window. 0 picks max(8·P, 64).
	WindowTicks int

	// Hist is the trailing observation window (exported for checkpointing).
	Hist []float64
	N    int64
}

func (ar *AR) params() (p, w int) {
	p, w = ar.P, ar.WindowTicks
	if p <= 0 {
		p = 8
	}
	if w <= 0 {
		w = 8 * p
		if w < 64 {
			w = 64
		}
	}
	if w < 3*p {
		w = 3 * p
	}
	return
}

// Observe consumes one observation.
func (ar *AR) Observe(v float64) {
	_, w := ar.params()
	if len(ar.Hist) >= w {
		copy(ar.Hist, ar.Hist[1:])
		ar.Hist = ar.Hist[:len(ar.Hist)-1]
	}
	ar.Hist = append(ar.Hist, v)
	ar.N++
}

// Ready is true once the window holds 3·P observations — below that the
// normal equations are too ill-conditioned to trust.
func (ar *AR) Ready() bool {
	p, _ := ar.params()
	return len(ar.Hist) >= 3*p
}

// Name identifies the model.
func (ar *AR) Name() string { return "ar" }

// Forecast fits the AR(P) coefficients by OLS on the current window and
// iterates the recurrence h steps forward. A degenerate fit (singular
// normal equations — e.g. a constant series, where the lag columns are
// collinear with the intercept) falls back to the last value, which for a
// constant series is also the right answer.
func (ar *AR) Forecast(h int) float64 {
	if len(ar.Hist) == 0 {
		return 0
	}
	if h < 1 {
		h = 1
	}
	last := ar.Hist[len(ar.Hist)-1]
	p, _ := ar.params()
	if len(ar.Hist) < 3*p {
		return last
	}
	coef, ok := ar.fit(p)
	if !ok {
		return last
	}
	// Iterate the recurrence: ext holds the most recent p values, newest
	// last.
	ext := append([]float64(nil), ar.Hist[len(ar.Hist)-p:]...)
	var next float64
	for step := 0; step < h; step++ {
		next = coef[0]
		for j := 1; j <= p; j++ {
			next += coef[j] * ext[len(ext)-j]
		}
		ext = append(ext, next)
	}
	if next < 0 {
		next = 0
	}
	return next
}

// fit solves the OLS normal equations for [intercept, a1..ap]. Returns
// ok=false when the system is numerically singular.
func (ar *AR) fit(p int) ([]float64, bool) {
	n := p + 1
	// Build X'X and X'y over rows t = p .. len-1 with regressors
	// [1, hist[t-1], ..., hist[t-p]].
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	row := make([]float64, n)
	for t := p; t < len(ar.Hist); t++ {
		row[0] = 1
		for j := 1; j <= p; j++ {
			row[j] = ar.Hist[t-j]
		}
		y := ar.Hist[t]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y
		}
	}
	return solveLinear(xtx, xty)
}

// solveLinear solves A·x = b in place by Gaussian elimination with partial
// pivoting. Returns ok=false on a (near-)singular system.
func solveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot: largest |a[row][col]| at or below the diagonal.
		piv := col
		for r := col + 1; r < n; r++ {
			if fabs(a[r][col]) > fabs(a[piv][col]) {
				piv = r
			}
		}
		if fabs(a[piv][col]) < 1e-9 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

func fabs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
