package obs

// LifecycleObs observes the model-trust lifecycle: residual monitoring,
// drift trips, shadow retraining, canary gate verdicts, promotions and
// rollbacks. Like every hook in this package it is a valid no-op when nil.
type LifecycleObs struct {
	t *Telemetry
}

// NewLifecycleObs returns a lifecycle hook, or nil when t is nil.
func NewLifecycleObs(t *Telemetry) *LifecycleObs {
	if t == nil {
		return nil
	}
	return &LifecycleObs{t: t}
}

// Residual records one residual-monitor sample: the relative signed residual
// between observed and predicted p99, plus the monitor's EWMA and CUSUM
// statistics. Gauges only — one sample per lifecycle tick.
func (o *LifecycleObs) Residual(at float64, residual, ewma, cusum float64) {
	if o == nil {
		return
	}
	o.t.Reg.Gauge("graf_model_residual",
		"Relative signed residual (observed vs predicted p99) of the active model.",
		nil).Set(residual)
	o.t.Reg.Gauge("graf_model_residual_ewma",
		"EWMA of the absolute relative residual.", nil).Set(ewma)
	o.t.Reg.Gauge("graf_model_drift_cusum",
		"CUSUM statistic of the drift trip wire.", nil).Set(cusum)
}

// Event records one lifecycle state-machine event ("drift-trip", "retrain",
// "gate-pass", "gate-reject", "promote", "rollback", "recover") into the
// metrics registry and flight recorder.
func (o *LifecycleObs) Event(at float64, kind string, gen int, detail string, summary map[string]float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_lifecycle_events_total",
		"Model lifecycle events by kind.",
		Labels{"kind": kind}).Inc()
	o.t.Reg.Gauge("graf_model_generation",
		"Generation number of the model currently driving the solver.",
		nil).Set(float64(gen))
	o.t.Flight.Record(Record{Type: "lifecycle", At: at, Kind: kind,
		ModelGen: gen, Detail: detail, Summary: summary})
}
