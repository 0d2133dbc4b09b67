package forecast

import "graf/internal/metrics"

// Hampel is a rolling-median/MAD outlier filter applied to each telemetry
// stream (per-API observed rates, measured p99, the forecaster's rate feed)
// before anything downstream consumes it. A single corrupted spike — a
// chaos telemetryCorrupt event, a scrape glitch, a blackholed window
// reading zero — is replaced by the window median instead of tripping the
// drift wire, poisoning a retraining window, or teaching the forecaster a
// surge that never happened. A genuine level shift passes through after
// roughly half a window, which is exactly the persistence test that
// separates real demand from noise.
//
// It lives in this package (which imports only metrics) so both the model
// lifecycle (internal/lifecycle) and the controller's forecaster can
// sanitize their inputs without an import cycle.
type Hampel struct {
	// K is the MAD multiplier: values farther than K scaled-MADs from the
	// window median are rejected. 0 picks the default 4.
	K float64

	// Floor is the relative deviation floor as a fraction of the median: a
	// nearly-constant stream has MAD ≈ 0 and would otherwise reject every
	// benign fluctuation. 0 picks the default 0.05.
	Floor float64

	// N is the rolling window length. 0 picks the default 9.
	N int

	// Ring is the trailing raw values (exported for checkpointing).
	Ring []float64
}

func (h *Hampel) defaults() (k, floor float64, n int) {
	k, floor, n = h.K, h.Floor, h.N
	if k <= 0 {
		k = 4
	}
	if floor <= 0 {
		floor = 0.05
	}
	if n <= 0 {
		n = 9
	}
	return
}

// Push appends one raw observation and returns the sanitized value: the raw
// value if it is consistent with the window, the window median if it is an
// outlier.
func (h *Hampel) Push(v float64) float64 {
	k, floor, n := h.defaults()
	if len(h.Ring) >= n {
		copy(h.Ring, h.Ring[1:])
		h.Ring = h.Ring[:len(h.Ring)-1]
	}
	h.Ring = append(h.Ring, v)
	if len(h.Ring) < 3 {
		return v
	}
	med := metrics.Median(h.Ring)
	devs := make([]float64, len(h.Ring))
	for i, x := range h.Ring {
		devs[i] = fabs(x - med)
	}
	// 1.4826 rescales MAD to the standard deviation of a normal stream.
	mad := 1.4826 * metrics.Median(devs)
	if f := floor * fabs(med); mad < f {
		mad = f
	}
	if fabs(v-med) > k*mad {
		return med
	}
	return v
}
