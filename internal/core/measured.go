package core

import "graf/internal/app"

// measuredModel is a LatencyModel that measures instead of predicting: e2e's
// tail latency at the total front-end rate a load vector stands for, and
// ∂L/∂qᵢ by central differences of step[i] millicores.
type measuredModel struct {
	e2e   func(quotas map[string]float64, totalRate float64) float64
	names []string
	unit  float64 // Σ per-node load at 1 req/s
	step  []float64
}

// NewLabelModel returns s's labeller on a's search box b as a latency model,
// measured at every call: the noise-free analytic measurer at the calibrate
// fit Train makes for s and b, differenced at 0.2% of the box's width; or
// with s.SimulatorLabels the simulator at one seed for every call (common
// random numbers: a difference measures the quota change, not the noise),
// differenced at 2%. It is safe for concurrent use.
func NewLabelModel(a *app.App, b Bounds, s TrainSpec) LatencyModel {
	m := measuredModel{names: a.ServiceNames()}
	frac := 0.002
	if s.SimulatorLabels {
		sm := NewSimMeasurer(a, s.Seed+20)
		m.e2e = func(q map[string]float64, rate float64) float64 { return sm.measureE2EAt(0, q, rate) }
		frac = 0.02
	} else {
		m.e2e = calibratedMeasurer{
			AnalyticMeasurer: NewAnalyticMeasurer(a, 0, s.Seed+40),
			Cal:              calibrate(a, b, s.MinRate, s.MaxRate, 5*s.SLO, s.CalibrationProbes, s.Seed+30),
		}.MeasureE2E
	}
	perService := a.PerServiceRate(a.MixRates(1))
	for i, name := range m.names {
		m.unit += perService[name]
		m.step = append(m.step, frac*(b.Hi[i]-b.Lo[i]))
	}
	return m
}

func (m measuredModel) at(load, quota []float64) (map[string]float64, float64) {
	q := make(map[string]float64, len(m.names))
	sum := 0.0
	for i, name := range m.names {
		q[name] = quota[i]
		sum += load[i]
	}
	return q, sum / m.unit
}

// Predict implements LatencyModel.
func (m measuredModel) Predict(load, quota []float64) float64 { return m.e2e(m.at(load, quota)) }

// PredictGrad implements LatencyModel; the gradient is a new slice.
func (m measuredModel) PredictGrad(load, quota []float64) (float64, []float64) {
	q, rate := m.at(load, quota)
	grad := make([]float64, len(quota))
	for i, name := range m.names {
		if h := m.step[i]; h > 0 {
			q[name] = quota[i] + h
			up := m.e2e(q, rate)
			q[name] = quota[i] - h
			grad[i] = (up - m.e2e(q, rate)) / (2 * h)
			q[name] = quota[i]
		}
	}
	return m.e2e(q, rate), grad
}
