package lifecycle

import "graf/internal/metrics"

// The residual monitor watches a relative, signed residual: (observed p99 −
// predicted p99) / observed p99, so +0.5 means the model underestimates the
// measured tail by half — the dangerous direction, because the solver will
// then under-provision.
const (
	// ewmaAlpha is the EWMA smoothing factor over the absolute residual.
	ewmaAlpha = 0.25

	// cusumSlack is the CUSUM allowance k: per-tick residual mass below it
	// is forgiven, mass above it accumulates toward the trip threshold. The
	// underestimation wire uses cusumSlack directly; the overestimation
	// wire uses 2×cusumSlack — an overestimating model merely
	// over-provisions.
	cusumSlack = 0.15

	// cusumTrip is the CUSUM trip threshold h. With cusumSlack 0.15 and
	// cusumTrip 1.2, a sustained 35% underestimation trips in six ticks; a
	// 20% one in 24.
	cusumTrip = 1.2

	// ringLen and ringQ configure the windowed-quantile wire: the
	// ringQ-quantile of the last ringLen absolute residuals above
	// quantileTrip also trips. This catches erratic models whose signed
	// error averages out.
	ringLen      = 12
	ringQ        = 0.75
	quantileTrip = 0.6

	// warmup is how many residuals must be observed before any wire arms.
	warmup = 6
)

// Monitor is the online residual monitor: EWMA + windowed quantile of the
// relative residual, with two one-sided CUSUM trip wires. The zero Monitor
// is ready to use.
type Monitor struct {
	N       int     // residuals observed since the last reset
	EWMA    float64 // EWMA of |residual|
	CusumHi float64 // underestimation wire (observed ≫ predicted)
	CusumLo float64 // overestimation wire (predicted ≫ observed)
	Ring    []float64
}

// Observe folds one signed relative residual into every statistic.
func (m *Monitor) Observe(r float64) {
	a := abs(r)
	if m.N == 0 {
		m.EWMA = a
	} else {
		m.EWMA += ewmaAlpha * (a - m.EWMA)
	}
	m.N++
	m.CusumHi += r - cusumSlack
	if m.CusumHi < 0 {
		m.CusumHi = 0
	}
	m.CusumLo += -r - 2*cusumSlack
	if m.CusumLo < 0 {
		m.CusumLo = 0
	}
	if len(m.Ring) >= ringLen {
		copy(m.Ring, m.Ring[1:])
		m.Ring = m.Ring[:len(m.Ring)-1]
	}
	m.Ring = append(m.Ring, a)
}

// Cusum returns the larger of the two one-sided statistics.
func (m *Monitor) Cusum() float64 {
	if m.CusumHi >= m.CusumLo {
		return m.CusumHi
	}
	return m.CusumLo
}

// Tripped reports whether any armed wire has fired.
func (m *Monitor) Tripped() bool {
	if m.N < warmup {
		return false
	}
	if m.CusumHi > cusumTrip || m.CusumLo > cusumTrip {
		return true
	}
	return len(m.Ring) >= ringLen && metrics.Quantile(m.Ring, ringQ) > quantileTrip
}

// Reset clears all accumulated state: a new model starts with a clean
// record.
func (m *Monitor) Reset() {
	m.N = 0
	m.EWMA = 0
	m.CusumHi = 0
	m.CusumLo = 0
	m.Ring = nil
}
