package obs

import "strconv"

// The hook types below are the only API the instrumented packages
// (internal/core, internal/cluster, internal/chaos, internal/gnn) see. All
// of them are valid no-ops when nil — every method starts with a nil-receiver
// guard — so the disabled path costs exactly one pointer comparison at each
// instrumentation point and allocates nothing.

// Bucket bounds of the per-decision histograms, built once: a family keeps
// the bounds of its first registration, so every later call's are garbage.
var (
	solverIterBuckets    = expBuckets(1, 2, 10)
	forecastErrorBuckets = expBuckets(1, 2, 12)
)

// ControllerObs observes the collect→predict→solve→actuate loop.
type ControllerObs struct {
	t *Telemetry
}

// NewControllerObs returns a controller hook, or nil when t is nil.
func NewControllerObs(t *Telemetry) *ControllerObs {
	if t == nil {
		return nil
	}
	return &ControllerObs{t: t}
}

// Traced reports whether a stage measured now becomes a trace span, so a
// caller builds span attributes only when they will be kept.
func (o *ControllerObs) Traced() bool { return o != nil && o.t.traced() }

// Stage records one timed decision stage (collect, forward, solve, actuate)
// as a histogram observation (seconds) and, when traced, a trace span.
func (o *ControllerObs) Stage(name string, wallNS int64, attrs map[string]float64) {
	if o == nil {
		return
	}
	o.t.Reg.Histogram("graf_decision_stage_seconds",
		"Wall-clock cost of each controller decision stage.",
		nil, Labels{"stage": name}).Observe(float64(wallNS) / 1e9)
	if o.t.traced() {
		o.t.traceSpan("decision/"+name, wallNS, attrs)
	}
}

// Solver records one solver run's effort (model calls; Adam iterations under
// solver version 1) and whether it stopped by its own criterion.
func (o *ControllerObs) Solver(iters int, converged bool, wallNS int64) {
	if o == nil {
		return
	}
	o.t.Reg.Histogram("graf_solver_iterations",
		"Model calls per solver run.",
		solverIterBuckets, nil).Observe(float64(iters))
	o.t.Reg.Counter("graf_solver_runs_total",
		"Solver runs by convergence outcome.",
		Labels{"converged": strconv.FormatBool(converged)}).Inc()
	if o.t.traced() {
		o.t.traceSpan("solver", wallNS,
			map[string]float64{"iters": float64(iters), "converged": b2f(converged)})
	}
}

// Decision counts one completed controller step by outcome kind, records the
// per-service applied quotas as gauges, annotates the record with the chaos
// events active at its instant, and appends it to the flight recorder.
func (o *ControllerObs) Decision(rec Record) {
	if o == nil {
		return
	}
	rec.Type = "decision"
	rec.Chaos = o.t.ActiveChaos(rec.At)
	o.t.Reg.Counter("graf_decisions_total",
		"Controller decisions by outcome kind.",
		Labels{"kind": rec.Kind}).Inc()
	for svc, q := range rec.Applied {
		o.t.Reg.Gauge("graf_quota_millicores",
			"CPU quota (millicores) most recently applied per service.",
			Labels{"service": svc}).Set(q)
	}
	if rec.Predicted > 0 {
		o.t.Reg.Gauge("graf_predicted_latency_seconds",
			"GNN end-to-end latency prediction for the applied allocation.",
			nil).Set(rec.Predicted)
	}
	if rec.FcRate > 0 {
		o.t.Reg.Gauge("graf_forecast_rate",
			"Risk-adjusted forecast rate most recently fed to the solver.",
			nil).Set(rec.FcRate)
		o.t.Reg.Counter("graf_forecast_driven_total",
			"Controller decisions solved against the forecasted rate.",
			nil).Inc()
	}
	if rec.Prewarm > 0 {
		o.t.Reg.Counter("graf_forecast_prewarm_instances_total",
			"Instances ordered ahead of forecasted demand.",
			nil).Add(float64(rec.Prewarm))
	}
	o.t.Flight.Record(rec)
}

// Forecast records one matured workload forecast against the rate that
// actually arrived, plus the forecaster's health, as metrics and a
// flight-recorder audit record.
func (o *ControllerObs) Forecast(at float64, model string, predicted, actual, sigma float64, healthy bool) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_forecast_matured_total",
		"Forecasts whose target tick arrived, by model.",
		Labels{"model": model}).Inc()
	o.t.Reg.Histogram("graf_forecast_abs_error",
		"Absolute error of matured forecasts (req/s).",
		forecastErrorBuckets, Labels{"model": model}).Observe(fabsf(actual - predicted))
	o.t.Reg.Gauge("graf_forecast_sigma",
		"Standard deviation of recent forecast residuals (req/s).",
		nil).Set(sigma)
	o.t.Reg.Gauge("graf_forecast_healthy",
		"1 while forecasts may drive the solver, 0 while the residual blowout detector has degraded the loop to reactive.",
		nil).Set(b2f(healthy))
	o.t.Flight.Record(Record{Type: "forecast", At: at, Kind: model,
		Summary: map[string]float64{
			"predicted": predicted, "actual": actual, "sigma": sigma, "healthy": b2f(healthy)}})
}

// Health records a degraded-mode state transition. code is the numeric value
// of the new state for the graf_health_state gauge.
func (o *ControllerObs) Health(at float64, from, to string, code int) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_health_transitions_total",
		"Controller health-state transitions.",
		Labels{"from": from, "to": to}).Inc()
	o.t.Reg.Gauge("graf_health_state",
		"Current controller health state (0=healthy 1=degraded-telemetry 2=fallback-heuristic 3=boosting).",
		nil).Set(float64(code))
	o.t.Flight.Record(Record{Type: "health", At: at, From: from, To: to})
}

// ClusterObs observes actuation effects: scale events and instance churn.
type ClusterObs struct {
	t *Telemetry
}

// NewClusterObs returns a cluster hook, or nil when t is nil.
func NewClusterObs(t *Telemetry) *ClusterObs {
	if t == nil {
		return nil
	}
	return &ClusterObs{t: t}
}

// Scale records a replica-count change for one service.
func (o *ClusterObs) Scale(service string, from, to int) {
	if o == nil || from == to {
		return
	}
	dir := "up"
	if to < from {
		dir = "down"
	}
	o.t.Reg.Counter("graf_scale_events_total",
		"Replica scale events by service and direction.",
		Labels{"service": service, "direction": dir}).Inc()
}

// Churn records instance lifecycle counts for one service: instances created,
// condemned (graceful) and killed (abrupt), plus the current ready count.
func (o *ClusterObs) Churn(service string, created, condemned, killed, ready int) {
	if o == nil {
		return
	}
	if created > 0 {
		o.t.Reg.Counter("graf_instances_created_total",
			"Instances created per service.",
			Labels{"service": service}).Add(float64(created))
	}
	if condemned > 0 {
		o.t.Reg.Counter("graf_instances_condemned_total",
			"Instances gracefully condemned per service.",
			Labels{"service": service}).Add(float64(condemned))
	}
	if killed > 0 {
		o.t.Reg.Counter("graf_instances_killed_total",
			"Instances abruptly killed per service.",
			Labels{"service": service}).Add(float64(killed))
	}
	o.t.Reg.Gauge("graf_replicas_ready",
		"Ready replica count per service.",
		Labels{"service": service}).Set(float64(ready))
}

// ChaosObs observes fault injections.
type ChaosObs struct {
	t *Telemetry
}

// NewChaosObs returns a chaos hook, or nil when t is nil.
func NewChaosObs(t *Telemetry) *ChaosObs {
	if t == nil {
		return nil
	}
	return &ChaosObs{t: t}
}

// Fired records one fault firing active on [at, until]; instantaneous faults
// pass a small linger window so the decisions they disturb are annotated.
func (o *ChaosObs) Fired(at float64, kind, detail string, until float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_chaos_events_total",
		"Chaos fault injections by kind.",
		Labels{"kind": kind}).Inc()
	o.t.Flight.Record(Record{Type: "chaos", At: at, Kind: kind, Detail: detail})
	o.t.ChaosActive(kind, until)
}

// TrainObs observes GNN training: per-evaluation loss curves and batch cost.
type TrainObs struct {
	t *Telemetry
}

// NewTrainObs returns a training hook, or nil when t is nil.
func NewTrainObs(t *Telemetry) *TrainObs {
	if t == nil {
		return nil
	}
	return &TrainObs{t: t}
}

// Eval records one training evaluation point (iteration, train/val loss).
func (o *TrainObs) Eval(iter int, trainLoss, valLoss float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_train_evals_total",
		"Training evaluation points recorded.", nil).Inc()
	o.t.Reg.Gauge("graf_train_iteration",
		"Most recent training iteration evaluated.", nil).Set(float64(iter))
	o.t.Reg.Gauge("graf_train_loss",
		"Most recent training-set loss.", nil).Set(trainLoss)
	o.t.Reg.Gauge("graf_train_val_loss",
		"Most recent validation-set loss.", nil).Set(valLoss)
}

// Batch records the wall-clock cost of one training batch.
func (o *TrainObs) Batch(wallNS int64) {
	if o == nil {
		return
	}
	o.t.Reg.Histogram("graf_train_batch_seconds",
		"Wall-clock cost per training batch.",
		nil, nil).Observe(float64(wallNS) / 1e9)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fabsf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
