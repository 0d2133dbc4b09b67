package core

import (
	"math"
	"time"

	"graf/internal/cluster"
	"graf/internal/forecast"
	"graf/internal/obs"
)

// The loop's constants (§3.6, §3.8). Every caller ran with these values, so
// they are not configuration.
const (
	// IntervalS is the decision interval in seconds. GRAF solves
	// synchronously to workload change; the interval only bounds how often
	// the front-end rate is re-read.
	IntervalS = 5.0

	// RateWindowS is the trailing window over which front-end per-API rates
	// are observed. Short windows make the controller proactive: the surge
	// is visible within seconds at the front end even though deep services
	// have not yet perceived it.
	RateWindowS = 10.0

	// minTotalRate is the observed-rate floor below which no decision is
	// made at all: with no traffic there is no workload signal, and solving
	// for a near-zero rate would tear down a standing deployment (e.g. right
	// after the controller attaches to a warm cluster).
	minTotalRate = 1.0

	// demandFloorUtil adds a capacity guardrail to every solve: each
	// service's quota is floored at (per-service arrival rate × measured CPU
	// per request) / demandFloorUtil, with the CPU-per-request signal read
	// from the cluster's telemetry (the cAdvisor data the state collector
	// already observes, §3.2). The latency model alone cannot be trusted to
	// never dip below raw CPU demand — a configuration below demand diverges
	// no matter what the model predicted. The heuristic fallback allocates
	// at the same utilization.
	demandFloorUtil = 0.85

	// untrustedUtil is the heuristic's utilization target while the
	// lifecycle manager holds the model ModelUntrusted. demandFloorUtil
	// sizes capacity, not tail latency: running the heuristic there parks
	// p99 just above a tight SLO for the whole degraded window. With no
	// trustworthy model, protecting the SLO is worth over-provisioning. The
	// breaker's fallback keeps demandFloorUtil.
	untrustedUtil = 0.55

	// breakerClose is how many consecutive healthy shadow solves close an
	// open model circuit breaker (see ControllerConfig.BreakerBand).
	breakerClose = 3

	// The probation envelope clamps the quota steps of a model on probation
	// (a freshly promoted canary that has not yet earned full trust): each
	// applied quota moves at most envelopeStepUp× up and envelopeStepDown×
	// down per decision, and never below envelopeMinQuota millicores. It is
	// tighter than MaxStepUp/MaxStepDown, so an untrusted model's mistakes
	// leak into the cluster slowly enough for the probation monitor to
	// catch them before they starve a service.
	envelopeStepUp   = 1.5
	envelopeStepDown = 0.7
	envelopeMinQuota = 50.0
)

// ControllerConfig parameterizes the end-to-end GRAF control loop (§3.6,
// §3.8): the values its callers vary. The rest are the constants above.
type ControllerConfig struct {
	// SLO is the end-to-end tail-latency objective in seconds.
	SLO float64

	// TrainedMinRate and TrainedMaxRate bound the total front-end rates
	// covered by the training set. Workloads outside the region are
	// scaled into it before solving and the resulting quotas scaled back
	// proportionally (§3.6, "Scaling workload and instances"), assuming
	// load is evenly distributed over instances. Scaling down matters as
	// much as scaling up: Algorithm 1's lower bounds are probed at a
	// substantial workload, so light traffic must shrink quotas below
	// them rather than sit on the bound. Zero disables either direction.
	TrainedMinRate float64
	TrainedMaxRate float64

	// Hysteresis is the relative front-end rate change below which the
	// previous configuration is kept (avoids churn from rate noise).
	Hysteresis float64

	// ViolationBoost is a reactive guardrail beyond the paper's design:
	// when the measured tail latency violates the SLO, the last applied
	// quotas are multiplied by this factor until the violation clears,
	// then the proactive path resumes. It exists for closed-loop
	// saturation, where the front-end arrival rate equals the
	// capacity-throttled throughput and therefore under-reports demand —
	// without the guardrail the controller can converge to a starved
	// fixed point. 1 (or 0) disables it.
	ViolationBoost float64

	// BoostCap ceilings the ViolationBoost compounding: under a
	// persistent violation repeated boosts multiply the last quotas
	// without bound, so each boosted quota is clamped to
	// BoostCap × Bounds.Hi for its service. 0 disables the cap.
	BoostCap float64

	// --- Graceful degradation (chaos hardening) ---------------------

	// StaleRateCollapse treats a one-interval collapse of the observed
	// front-end rate below this fraction of the last solved-for rate —
	// while requests are still in flight — as a telemetry fault rather
	// than a real traffic drop: the controller holds the last-known-good
	// configuration instead of solving on the bogus signal. 0 disables
	// the detector.
	StaleRateCollapse float64

	// StaleHoldMaxS bounds how long the stale-telemetry hold lasts. A
	// collapsed signal persisting longer is accepted as a real traffic
	// drop and the proactive path resumes on it. 0 holds for as long as
	// the collapse lasts.
	StaleHoldMaxS float64

	// BreakerBand opens the model circuit breaker when a solve is
	// untrustworthy: a NaN/non-positive prediction trips it immediately,
	// a measured p99 more than BreakerBand× the model's prediction trips
	// it (the model grossly underestimates — the dangerous direction),
	// and repeated non-converged solves that also miss the SLO trip it.
	// While open the controller allocates with the demand-floor heuristic
	// instead of the model and keeps shadow-solving every interval;
	// breakerClose consecutive healthy shadow solves close it again.
	// 0 disables the breaker.
	BreakerBand float64

	// MaxStepUp and MaxStepDown rate-limit the applied configuration per
	// decision interval: each service's new quota is clamped to
	// [old × MaxStepDown, old × MaxStepUp]. This stops flapping on noisy
	// or faulted signals. Zero disables a direction.
	MaxStepUp   float64
	MaxStepDown float64

	// Forecast enables the workload-forecasting subsystem: when
	// Forecast.Enabled, the controller solves against the risk-adjusted
	// forecasted rate at Forecast.HorizonTicks intervals ahead instead of
	// the observed rate, so the Figure-1 instance-startup latency is paid
	// before the surge lands rather than during it. A mis-forecasting
	// predictor (residual blowout) degrades the loop back to today's
	// reactive behavior. The zero value is forecasting off.
	Forecast forecast.Config

	Solver SolverConfig
}

// HealthState enumerates the controller's degraded-mode state machine.
type HealthState int

const (
	// Healthy: the proactive model-driven path is in control.
	Healthy HealthState = iota
	// DegradedTelemetry: the workload signal looks stale or black-holed;
	// the controller is holding the last-known-good configuration.
	DegradedTelemetry
	// FallbackHeuristic: the model circuit breaker is open; allocations
	// come from the demand-floor heuristic.
	FallbackHeuristic
	// Boosting: a measured SLO violation has engaged the reactive boost
	// guardrail.
	Boosting
)

// String names the health state.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "Healthy"
	case DegradedTelemetry:
		return "DegradedTelemetry"
	case FallbackHeuristic:
		return "FallbackHeuristic"
	case Boosting:
		return "Boosting"
	}
	return "Unknown"
}

// HealthStats counts degraded-mode activity.
type HealthStats struct {
	StaleHolds      int // decisions held on suspected-stale telemetry
	BreakerTrips    int // model circuit breaker openings
	BreakerCloses   int // breaker closings after healthy streaks
	FallbackSolves  int // decisions served by the heuristic allocator
	RateLimited     int // applied configurations clamped by the step limiter
	EnvelopeClamped int // applied configurations clamped by the probation envelope
	Boosts          int // reactive boost firings
	Transitions     int // health-state transitions

	ForecastSolves   int // solves driven by the forecasted rate
	ForecastDegraded int // ticks the residual blowout held the loop reactive
	Prewarms         int // decisions that ordered instances ahead of forecasted demand
}

// ModelTrust is the lifecycle manager's verdict on the model currently
// driving the solver. It is orthogonal to the circuit breaker: the breaker
// reacts to individual untrustworthy solves, trust is set externally by the
// drift monitor and canary state machine (internal/lifecycle).
type ModelTrust int

const (
	// ModelTrusted: the model drives the solver unconstrained.
	ModelTrusted ModelTrust = iota
	// ModelProbation: the model drives the solver, but applied quota steps
	// are clamped by the probation envelope until the probation window passes.
	ModelProbation
	// ModelUntrusted: the drift monitor demoted the model; allocations come
	// from the demand-floor heuristic while solves continue in shadow.
	ModelUntrusted
)

// DefaultControllerConfig returns the loop settings used in the evaluation.
func DefaultControllerConfig(slo float64) ControllerConfig {
	return ControllerConfig{
		SLO:            slo,
		Hysteresis:     0.12,
		ViolationBoost: 1.5,
		BoostCap:       4,

		StaleRateCollapse: 0.35,
		StaleHoldMaxS:     60,
		BreakerBand:       12,
		MaxStepUp:         6,
		MaxStepDown:       0.5,

		Solver: DefaultSolverConfig(),
	}
}

// VanillaControllerConfig returns the loop settings with every
// graceful-degradation guardrail disabled — the controller exactly as the
// paper describes it. The chaos benchmarks compare this against the
// hardened default.
func VanillaControllerConfig(slo float64) ControllerConfig {
	cfg := DefaultControllerConfig(slo)
	cfg.BoostCap = 0
	cfg.StaleRateCollapse = 0
	cfg.BreakerBand = 0
	cfg.MaxStepUp = 0
	cfg.MaxStepDown = 0
	return cfg
}

// Decision kinds: the exit a decision took, stamped on its audit record as
// Kind. The stages below produce them; ControllerState.commit is the only
// consumer that gives them meaning.
const (
	KindSolve             = "solve"              // full solve, model allocation applied
	KindWarmSolve         = "warm-solve"         // brownout warm rung: short solve from the previous Raw
	KindFallback          = "fallback"           // solved in shadow, breaker open: heuristic allocation applied
	KindFallbackModel     = "fallback-model"     // solved in shadow, model untrusted: heuristic allocation applied
	KindBrownoutHeuristic = "brownout-heuristic" // brownout heuristic rung: no trace refresh, no solve
	KindBrownoutHold      = "brownout-hold"      // brownout hold rung: nothing read, nothing changed
	KindBoost             = "boost"              // measured SLO violation: last configuration grown
	KindBoostWait         = "boost-wait"         // violation, but the previous scale-up is still materializing
	KindHold              = "hold"               // suspected-stale telemetry: last-known-good held
	KindHysteresis        = "hysteresis"         // rate moved less than Cfg.Hysteresis: configuration kept
	KindIdle              = "idle"               // below minTotalRate: no workload signal
)

// Controller is GRAF's runtime: every interval it reads the front-end
// workload, distributes it over the graph with the Workload Analyzer, runs
// the Configuration Solver through the trained model, and applies the
// resulting quotas to the cluster — for every microservice at once, which
// is what avoids the cascading effect.
type Controller struct {
	Cluster  *cluster.Cluster
	Model    LatencyModel
	Analyzer *Analyzer
	Bounds   Bounds
	Cfg      ControllerConfig

	// st is everything the controller remembers between decisions — the
	// same struct a checkpoint persists. Decisions change it only through
	// st.observe and st.commit (checkpoint.go), the two transitions the
	// crash fold replays; SetModel, SetTrust and SetBrownout are the
	// external inputs.
	st   ControllerState
	stop func()
	tk   tick // the decision in flight, reused by every Step

	// What every decision reads and fills, kept across decisions so that
	// neither a held nor a solving one allocates: the service names,
	// collect's observed per-API rates and scaleRates' forecast- and
	// region-scaled copy of them; the analyzed load and the solver box;
	// the solver's workspace; the proposed quotas. The record carries load,
	// box, raw answer and proposal by reference — the flight recorder and
	// commit copy what they keep — and the next decision refills them.
	names         []string
	rates, scaled map[string]float64
	load, lo, hi  []float64
	ws            workspace
	quotas        map[string]float64

	// OnDecision, if set, observes every applied configuration. sol.Quotas
	// is the controller's own vector, valid for the call only.
	OnDecision func(t float64, totalRate float64, sol Solution)

	// OnHealth, if set, observes every transition of the degraded-mode
	// state machine.
	OnHealth func(t float64, from, to HealthState)

	// Obs, if set, receives flight-recorder telemetry for every decision:
	// per-stage wall timings, solver convergence, outcome kind, and the
	// complete solver inputs/outputs needed to replay the decision
	// bit-identically. Nil disables all instrumentation at the cost of one
	// nil check per site.
	Obs *obs.ControllerObs
}

// NewController wires a controller. The bounds come from Algorithm 1.
func NewController(cl *cluster.Cluster, m LatencyModel, an *Analyzer, b Bounds, cfg ControllerConfig) *Controller {
	var fc *forecast.Predictor
	if cfg.Forecast.Enabled {
		fc = forecast.NewPredictor(cfg.Forecast)
	}
	cl.DeclareLookback(cluster.APIRates, RateWindowS)
	cl.DeclareLookback(cluster.E2ELatency|cluster.CPU, 3*RateWindowS) // the measured-p99 and CPU-per-request reads
	apis, n := len(cl.APINames()), len(cl.App.Services)
	return &Controller{Cluster: cl, Model: m, Analyzer: an, Bounds: b, Cfg: cfg,
		st:    ControllerState{StaleSince: -1, Forecast: fc},
		names: cl.App.ServiceNames(),
		rates: make(map[string]float64, apis), scaled: make(map[string]float64, apis),
		load: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n),
		quotas: make(map[string]float64, n)}
}

// Forecaster returns the controller's workload predictor, or nil when
// forecasting is disabled.
func (c *Controller) Forecaster() *forecast.Predictor { return c.st.Forecast }

// Solves returns how many times the solver has run.
func (c *Controller) Solves() int { return c.st.Solves }

// Health returns the controller's current degraded-mode state.
func (c *Controller) Health() HealthState { return HealthState(c.st.Health) }

// ModelGen returns the generation number of the model driving the solver.
func (c *Controller) ModelGen() int { return c.st.ModelGen }

// Trust returns the lifecycle trust level of the current model.
func (c *Controller) Trust() ModelTrust { return ModelTrust(c.st.Trust) }

// Stats returns the degraded-mode activity counters.
func (c *Controller) Stats() HealthStats { return c.st.Stats }

// SetModel swaps the latency model driving the solver (a canary promotion or
// a rollback) and stamps its generation number into subsequent audit
// records. Breaker state accumulated against the previous model is cleared —
// the new model earns its own verdict — and the hysteresis reference is
// zeroed so the next tick re-solves with the new model instead of coasting.
func (c *Controller) SetModel(m LatencyModel, gen int) {
	c.Model = m
	c.st.ModelGen = gen
	c.st.BreakerOpen = false
	c.st.HealthStreak = 0
	c.st.Unconverged = 0
	c.st.LastRate = 0
}

// SetTrust sets the lifecycle trust level. Demoting to ModelUntrusted zeroes
// the hysteresis reference so the heuristic fallback takes over at the next
// tick rather than whenever the rate next moves.
func (c *Controller) SetTrust(t ModelTrust) {
	if t == c.Trust() {
		return
	}
	c.st.Trust = int(t)
	if t == ModelUntrusted {
		c.st.LastRate = 0
	}
}

// Brownout levels, driven externally by the fleet's ladder (overload.Step
// semantics, kept as a plain int so core stays a leaf).
const (
	BrownoutFull      = 0 // full GNN solve
	BrownoutWarm      = 1 // warm-start short solve from the last raw solution
	BrownoutHeuristic = 2 // demand-floor heuristic, no solve, no trace refresh
	BrownoutHold      = 3 // hold the last applied decision untouched
)

// SetBrownout sets the controller's brownout rung; levels outside
// [BrownoutFull, BrownoutHold] are clamped.
func (c *Controller) SetBrownout(level int) { c.st.setBrownout(level) }

// Brownout returns the controller's current brownout rung.
func (c *Controller) Brownout() int { return c.st.Brownout }

// wallStart returns the wall clock only when instrumentation is on, so the
// disabled path never calls time.Now.
func (c *Controller) wallStart() time.Time {
	if c.Obs == nil {
		return time.Time{}
	}
	return time.Now()
}

// stage records one timed decision stage when instrumentation is on.
func (c *Controller) stage(name string, t0 time.Time, attrs map[string]float64) {
	if c.Obs == nil {
		return
	}
	c.Obs.Stage(name, time.Since(t0).Nanoseconds(), attrs)
}

// spanAttr is a stage's span attribute, built only when the span is
// recorded.
func (c *Controller) spanAttr(key string, v float64) map[string]float64 {
	if !c.Obs.Traced() {
		return nil
	}
	return map[string]float64{key: v}
}

// Start begins the control loop at the current simulated time.
func (c *Controller) Start() {
	c.stop = c.Cluster.Eng.Ticker(c.Cluster.Eng.Now()+0.001, IntervalS, c.Step)
}

// Stop halts the control loop.
func (c *Controller) Stop() {
	if c.stop != nil {
		c.stop()
	}
}

// tick is one decision in flight: what the stages have read and proposed so
// far. The controller keeps one and Step resets it. Its maps and vectors are
// the controller's own, refilled by the next step: the flight recorder copies
// every one rec carries, and commit copies Applied and Raw into the state.
type tick struct {
	now float64
	// rec is the decision's audit record, filled as the stages go: every
	// exit labels rec.Kind and records the inputs and outputs it used, which
	// is what makes the log replayable — and what commit reads. rec.Applied
	// doubles as the proposal: non-nil means "actuate this".
	rec    obs.Record
	live   liveFacts          // what commit needs and rec does not carry
	rates  map[string]float64 // per-API rates the allocators will see (forecast- and region-scaled): c.rates or c.scaled
	scale  float64            // workload-scaling factor (§3.6)
	sol    Solution           // OnDecision's argument
	solved bool               // the solver ran this tick
}

// stages is the decision kernel: a decision is the first stage that yields.
// A stage reads c.st and the cluster, fills t, and never assigns c.st — what
// the decision does to the controller's memory is commit's business, so the
// live step and the crash fold cannot drift. Order is policy:
//
//   - holdRung precedes collect: the rung's point is a decision that costs
//     (almost) nothing, so it must not even read telemetry.
//   - collect feeds the forecaster before boost or staleHold can yield: the
//     seasonal model counts its period in ticks, and skipping the overloaded
//     or black-holed ones would let the seasonal index drift out of phase
//     with real time exactly when the workload is most dynamic.
//   - boost precedes staleHold: closed-loop throttling under an SLO
//     violation collapses the arrival rate with requests still in flight —
//     exactly what the stale detector calls a telemetry fault, and holding
//     there would pin the starved configuration.
//   - idle and hysteresis precede everything that costs an analyzer pass;
//     scaleRates precedes both allocators so they see the same workload.
var stages = []func(*Controller, *tick) bool{
	(*Controller).holdRung,
	(*Controller).collect,
	(*Controller).boost,
	(*Controller).staleHold,
	(*Controller).idle,
	(*Controller).hysteresis,
	(*Controller).scaleRates,
	(*Controller).heuristicRung,
	(*Controller).solve,
}

// Step executes one decision: the stages up to the first that yields (the
// forecaster is fed on the way, by collect) → actuate → commit → emit.
// Exposed so experiments can drive decisions at exact instants.
func (c *Controller) Step() {
	t0 := c.wallStart()
	t := &c.tk
	*t = tick{now: c.Cluster.Eng.Now(), scale: 1}
	t.rec = obs.Record{At: t.now, Health: c.Health().String()}
	for _, stage := range stages {
		if stage(c, t) {
			break
		}
	}
	if t.rec.Applied != nil {
		tActuate := c.wallStart()
		c.Cluster.ApplyQuotas(t.rec.Applied)
		c.stage("actuate", tActuate, nil)
	}
	from, to := c.st.commit(&t.rec, c.Cfg, &t.live)
	// Emit in the audit log's order: the forecast records went out with
	// collect; then the health transition, then the decision itself.
	if from != to {
		if c.OnHealth != nil {
			c.OnHealth(t.now, from, to)
		}
		c.Obs.Health(t.now, from.String(), to.String(), int(to))
	}
	if t.solved && c.OnDecision != nil {
		c.OnDecision(t.now, t.rec.Total, t.sol)
	}
	c.stage("step", t0, nil)
	c.Obs.Decision(t.rec)
}

// holdRung is the deepest brownout rung: hold the last applied decision
// untouched. It sits above even the boost guardrail — the rung exists to
// bound the decision's cost to (almost) zero while the shard digs out of
// overload, and a one-interval-deep ladder walk means the rung never
// persists long enough for the guardrail to matter.
func (c *Controller) holdRung(t *tick) bool {
	if c.Brownout() < BrownoutHold {
		return false
	}
	t.rec.Kind = KindBrownoutHold
	return true
}

// collect reads the front-end workload signal and feeds it to the
// forecaster. It never yields. The st.observe call is the one state write
// that precedes commit: the forecast has to exist before a later stage can
// solve against it, and the fold makes the identical call per record.
func (c *Controller) collect(t *tick) bool {
	tCollect := c.wallStart()
	total := c.Cluster.FillAPIArrivalRates(c.rates, RateWindowS)
	c.stage("collect", tCollect, c.spanAttr("total_rate", total))
	t.rates, t.rec.Rates, t.rec.Total = c.rates, c.rates, total

	pred, matured := c.st.observe(t.now, total)
	fc := c.st.Forecast
	if c.Obs != nil {
		for _, m := range matured {
			c.Obs.Forecast(t.now, fc.ModelName(), m.Predicted, m.Actual, fc.Sigma(), fc.Healthy())
		}
	}
	// The forecast drives the solve only from a fully healthy loop: a
	// tripped breaker, an untrusted model, a brownout rung, or a residual
	// blowout all degrade back to the reactive path rather than compound
	// with a forecast.
	if pred.OK && fc.Healthy() && !c.st.BreakerOpen &&
		c.Trust() != ModelUntrusted && c.Brownout() == BrownoutFull &&
		pred.Upper >= minTotalRate {
		t.rec.FcRate, t.rec.FcPoint, t.rec.FcSigma = pred.Upper, pred.Point, pred.Sigma
	}
	return false
}

// solveRate is the rate a decision's solver would see (and hysteresis
// compares, and the next decision remembers): the risk-adjusted forecast
// when it drove the decision, else the observed total.
func solveRate(rec *obs.Record) float64 {
	if rec.FcRate > 0 {
		return rec.FcRate
	}
	return rec.Total
}

// boost is the reactive guardrail: under a measured SLO violation the
// arrival rate under-reports demand (closed-loop throttling), so grow the
// current configuration instead of re-solving on a starved signal. Either
// exit makes commit zero the hysteresis reference, forcing a fresh solve
// once the violation clears.
func (c *Controller) boost(t *tick) bool {
	violated := c.Cfg.ViolationBoost > 1 &&
		c.Cluster.E2ELatencyQuantile(0.99, RateWindowS) > c.Cfg.SLO*1.1
	if !violated {
		return false
	}
	// Wait until the previous scale-up has fully materialized: boosting
	// faster than instances start compounds into huge overshoot.
	if c.Cluster.PendingInstances() > 0 {
		t.rec.Kind = KindBoostWait
		return true
	}
	last := c.st.LastQuotas
	if last == nil {
		last = c.Cluster.Quotas()
	}
	boosted := c.proposal()
	for i, name := range c.names {
		q, ok := last[name]
		if !ok {
			continue
		}
		q *= c.Cfg.ViolationBoost
		if c.Cfg.BoostCap > 0 && i < len(c.Bounds.Hi) {
			if cap := c.Bounds.Hi[i] * c.Cfg.BoostCap; cap > 0 && q > cap {
				q = cap
			}
		}
		boosted[name] = q
	}
	t.rec.Kind, t.rec.Applied = KindBoost, boosted
	return true
}

// staleHold is stale-telemetry detection: a collapse of the observed rate
// while the cluster is demonstrably still serving traffic is a telemetry
// fault (black-holed or sampled-down pipeline), not a traffic drop. Hold the
// last-known-good configuration instead of solving on it — but only for
// StaleHoldMaxS; a collapse that persists longer is accepted as real. Two
// signatures are recognized:
//   - gap: no new frontend arrival has been recorded for a full decision
//     interval (a dead pipeline), while the rate reads below its reference —
//     catches blackholes at the fault edge, before the trailing window has
//     fully decayed;
//   - collapse: the rate reads below StaleRateCollapse× the reference —
//     catches lossy sampling, where observations keep trickling in.
//
// Either needs corroborating activity evidence: requests in flight, or
// deployment-level telemetry (which a frontend fault leaves intact) within
// the last interval. The reference rate is only trusted once at least one
// decision interval has elapsed — observations right at simulation start
// divide by near-zero elapsed time and can be wildly inflated.
func (c *Controller) staleHold(t *tick) bool {
	total, ref := t.rec.Total, c.st.LastRate
	collapsed := false
	if c.Cfg.StaleRateCollapse > 0 && ref > 0 && c.st.LastRateAt >= IntervalS {
		evidence := c.Cluster.InFlight() > 0
		if !evidence {
			if at, ok := c.Cluster.LastDeploymentTelemetryAt(); ok && t.now-at <= IntervalS {
				evidence = true
			}
		}
		if evidence {
			if total < ref*c.Cfg.StaleRateCollapse {
				collapsed = true
			} else if total < ref {
				if at, ok := c.Cluster.LastArrivalAt(); !ok || t.now-at >= IntervalS {
					collapsed = true
				}
			}
		}
	}
	if !collapsed {
		t.live.StaleSince = -1
		return false
	}
	// An expired hold does not yield — the signal is treated as genuine — but
	// keeps its start, so the hold does not re-arm until the signal actually
	// recovers.
	since := c.st.StaleSince
	if since < 0 {
		since = t.now
	}
	t.live.StaleSince = since
	if c.Cfg.StaleHoldMaxS <= 0 || t.now-since <= c.Cfg.StaleHoldMaxS {
		t.rec.Kind = KindHold
		return true
	}
	return false
}

// idle: with no traffic there is no workload signal to decide on.
func (c *Controller) idle(t *tick) bool {
	if t.rec.Total < minTotalRate {
		t.rec.Kind = KindIdle
		return true
	}
	return false
}

// hysteresis keeps the previous configuration while the rate has moved less
// than Cfg.Hysteresis. It compares the rate the solver would actually see —
// the forecasted one when the forecast is driving — so a moving forecast
// re-solves even while the observed rate still looks flat. A stable signal
// also ends a telemetry degradation (commit: DegradedTelemetry → Healthy).
func (c *Controller) hysteresis(t *tick) bool {
	ref := c.st.LastRate
	if ref <= 0 || c.Cfg.SLO != c.st.LastSLO {
		return false
	}
	rel := (solveRate(&t.rec) - ref) / ref
	if rel < 0 {
		rel = -rel
	}
	// While the breaker is open — or the lifecycle manager holds the model
	// untrusted — keep solving every interval even on a stable rate: the
	// shadow solves are what lets the breaker close, and the heuristic
	// fallback must keep tracking measured demand.
	if rel < c.Cfg.Hysteresis && !c.st.BreakerOpen && c.Trust() != ModelUntrusted {
		t.rec.Kind = KindHysteresis
		return true
	}
	return false
}

// scaleRates settles the per-API rates the allocators will distribute, in
// c.scaled when either scaling applies. It never yields.
func (c *Controller) scaleRates(t *tick) bool {
	rate := solveRate(&t.rec)
	// Substitute the forecasted total for the observed one, keeping the
	// observed per-API mix: each rate scales by rate/total so the analyzer
	// distributes the forecasted demand over the same shape.
	if total := t.rec.Total; total > 0 && rate != total {
		f := rate / total
		for k, v := range t.rates {
			c.scaled[k] = v * f
		}
		t.rates = c.scaled
	}
	// Workload scaling (§3.6): solve inside the trained region, scale the
	// configuration back proportionally in either direction.
	switch {
	case c.Cfg.TrainedMaxRate > 0 && rate > c.Cfg.TrainedMaxRate:
		t.scale = rate / c.Cfg.TrainedMaxRate
	case c.Cfg.TrainedMinRate > 0 && rate < c.Cfg.TrainedMinRate:
		t.scale = rate / c.Cfg.TrainedMinRate
	}
	if t.scale != 1 {
		// In place when the forecast already scaled: each key is visited
		// once, so it still divides what the forecast step wrote.
		for k, v := range t.rates {
			c.scaled[k] = v / t.scale
		}
		t.rates = c.scaled
	}
	t.rec.Scale = t.scale
	return false
}

// heuristicRung is the heuristic brownout rung: allocate from measured CPU
// demand, skipping both the trace refresh and the solver. The analyzer keeps
// serving its last learned profile, exactly as it does under trace loss. No
// Raw is recorded, so offline replay skips re-solving these decisions.
func (c *Controller) heuristicRung(t *tick) bool {
	if c.Brownout() < BrownoutHeuristic {
		return false
	}
	load := c.Analyzer.distributeInto(c.load, t.rates)
	quotas := c.heuristicQuotas(load, t.scale, c.st.BreakerOpen)
	t.rec.Kind, t.rec.Load = KindBrownoutHeuristic, load
	t.rec.Applied, t.rec.Limited = c.limitStep(quotas)
	return true
}

// solve is the paper's path: analyze → solve through the model → allocate.
// It always yields.
func (c *Controller) solve(t *tick) bool {
	tAnalyze := c.wallStart()
	c.Analyzer.Refresh(c.Cluster.Traces())
	load := c.Analyzer.distributeInto(c.load, t.rates)
	c.stage("analyze", tAnalyze, nil)
	lo, hi := c.demandBounds(load)

	// Warm brownout rung: a short solve warm-started from the previous raw
	// solution. WarmSolverConfig is a pure function of the header's solver
	// config and the warm start is the previous record's Raw, so offline
	// replay reproduces these solves bit-identically.
	warm := c.Brownout() == BrownoutWarm
	scfg := c.Cfg.Solver
	var warmStart []float64
	if warm {
		scfg = WarmSolverConfig(scfg)
		warmStart = c.st.LastRaw
	}
	tSolve := c.wallStart()
	sol := c.ws.solve(c.Model, load, c.Cfg.SLO, lo, hi, scfg, warmStart)
	if c.Obs != nil {
		wallNS := time.Since(tSolve).Nanoseconds()
		c.stage("solve", tSolve, c.spanAttr("predicted", sol.Predicted))
		c.Obs.Solver(sol.Iterations, sol.Converged, wallNS)
	}
	t.sol, t.solved = sol, true
	// The complete solver inputs and raw outputs: with the header's SLO and
	// solver configuration these replay the solve bit-identically. ModelGen
	// names the model that produced them, so replay of a run that swapped
	// models mid-flight picks the right archived model.
	rec := &t.rec
	rec.ModelGen = c.st.ModelGen
	rec.Load, rec.Lo, rec.Hi = load, lo, hi
	rec.Raw, rec.Predicted, rec.Iters, rec.Converged = sol.Quotas, sol.Predicted, sol.Iterations, sol.Converged
	rec.Warm = warm

	// Model circuit breaker: decide whether this solve can be trusted. A
	// warm-rung short solve is exempt — its truncated budget makes
	// non-convergence routine, and tripping the breaker on it would turn
	// transient overload into a model-distrust episode.
	open := c.st.BreakerOpen
	if c.Cfg.BreakerBand > 0 && !warm {
		t.live.BreakerHealthy = c.solveHealthy(sol)
		open = c.st.breakerOpenAfter(t.live.BreakerHealthy)
	}

	var quotas map[string]float64
	switch {
	case open || c.Trust() == ModelUntrusted:
		// Fallback: allocate from measured CPU demand instead of the model.
		// "fallback" is the breaker's doing, "fallback-model" the lifecycle
		// manager's — commit must not mistake a drift demotion for an open
		// breaker.
		quotas = c.heuristicQuotas(load, t.scale, open)
		rec.Kind = KindFallbackModel
		if open {
			rec.Kind = KindFallback
		}
	default:
		quotas = c.proposal()
		for i, name := range c.names {
			quotas[name] = sol.Quotas[i] * t.scale
		}
		if c.Trust() == ModelProbation {
			quotas, rec.Enveloped = envelopeClamp(quotas, c.st.LastQuotas)
		}
		rec.Kind = KindSolve
		if warm {
			rec.Kind = KindWarmSolve
		}
	}
	rec.Applied, rec.Limited = c.limitStep(quotas)
	if rec.FcRate > 0 {
		c.countPrewarm(rec)
	}
	return true
}

// demandBounds returns this tick's solver box — the Algorithm-1 bounds with
// the capacity guardrail applied: never solve below measured CPU demand.
func (c *Controller) demandBounds(load []float64) (lo, hi []float64) {
	lo = append(c.lo[:0], c.Bounds.Lo...)
	hi = append(c.hi[:0], c.Bounds.Hi...)
	c.lo, c.hi = lo, hi
	for i, name := range c.names {
		cpuMS := c.Cluster.Deployment(name).CPUPerRequestMS(RateWindowS * 3)
		// req/s × cpu-ms/req = cpu-ms/s = millicores of demand.
		floor := load[i] * cpuMS / demandFloorUtil
		if floor > lo[i] {
			lo[i] = floor
		}
		if lo[i] > hi[i] {
			hi[i] = lo[i]
		}
	}
	return lo, hi
}

// countPrewarm is the pre-warm accounting of a forecast-driven decision: how
// many instances rec.Applied orders beyond what the previously applied
// quotas realize. Those instances start their Figure-1 curve now — leadS
// seconds before the forecasted demand lands — instead of after the surge is
// observed.
func (c *Controller) countPrewarm(rec *obs.Record) {
	prev := c.st.LastQuotas
	if prev == nil {
		prev = c.Cluster.Quotas()
	}
	n, maxBatch := 0, 0
	for name, q := range rec.Applied {
		old, ok := prev[name]
		if !ok {
			continue
		}
		if d := c.Cluster.InstancesFor(q) - c.Cluster.InstancesFor(old); d > 0 {
			n += d
			if d > maxBatch {
				maxBatch = d
			}
		}
	}
	if n > 0 {
		rec.Prewarm = n
		rec.PrewarmLeadS = float64(c.st.Forecast.Cfg.HorizonTicks) * IntervalS
		rec.PrewarmReadyS = c.Cluster.StartupSeconds(maxBatch)
	}
}

// proposal empties and returns the controller's quota map, which the stage
// that allocates fills as this tick's proposal.
func (c *Controller) proposal() map[string]float64 {
	clear(c.quotas)
	return c.quotas
}

// nextUnconverged counts consecutive solves that ran out of budget without
// finding a feasible configuration. A solve that stops by its own criterion
// never counts, whatever it predicts: an SLO the box cannot meet converges at
// the upper bounds on every tick of a surge, and that is the solver working.
// Running out of budget alone is no trouble either (every iterate is
// feasible once one has been found); it signals trouble only when the answer
// also misses the objective.
func nextUnconverged(prev int, converged bool, predicted, slo float64) int {
	if !converged && predicted > slo*1.05 {
		return prev + 1
	}
	return 0
}

// solveHealthy is the circuit breaker's verdict on one solve: false for a
// NaN/non-positive prediction, for a second consecutive unconverged miss, or
// when the measured tail is more than BreakerBand× the prediction. Gross
// underestimation is the dangerous direction: the model says the
// configuration is fine while measured tail latency screams. An
// overestimating model merely over-provisions. The 3×-window p99 is read
// only when the cheaper checks pass.
func (c *Controller) solveHealthy(sol Solution) bool {
	if math.IsNaN(sol.Predicted) || math.IsInf(sol.Predicted, 0) || sol.Predicted <= 0 {
		return false
	}
	if nextUnconverged(c.st.Unconverged, sol.Converged, sol.Predicted, c.Cfg.SLO) >= 2 {
		return false
	}
	measured := c.Cluster.E2ELatencyQuantile(0.99, RateWindowS*3)
	return !(measured > sol.Predicted*c.Cfg.BreakerBand)
}

// heuristicQuotas is the demand-floor allocator used while the model circuit
// breaker is open: quota_i = load_i × measured-CPU-per-request / target
// utilization, clamped to the solver bounds. It cannot shave latency like
// the model can, but it never starves a service of raw CPU demand. It fills
// the proposal map.
func (c *Controller) heuristicQuotas(load []float64, scale float64, breakerOpen bool) map[string]float64 {
	util := demandFloorUtil
	// A lifecycle demotion (as opposed to an open breaker) over-provisions:
	// the SLO is protected with CPU while no model can be trusted to shave
	// the tail any closer.
	if c.Trust() == ModelUntrusted && !breakerOpen {
		util = untrustedUtil
	}
	out := c.proposal()
	for i, name := range c.names {
		cpuMS := c.Cluster.Deployment(name).CPUPerRequestMS(RateWindowS * 3)
		if cpuMS <= 0 {
			// No telemetry either (e.g. black-holed): fall back to the
			// application model's nominal work per request.
			cpuMS = c.Cluster.App.Services[i].WorkMS
		}
		q := load[i] * cpuMS / util
		if q < c.Bounds.Lo[i] {
			q = c.Bounds.Lo[i]
		}
		if q > c.Bounds.Hi[i] {
			q = c.Bounds.Hi[i]
		}
		out[name] = q * scale
	}
	return out
}

// limitStep rate-limits a proposed configuration against the previously
// applied one: each quota may grow at most MaxStepUp× and shrink at most to
// MaxStepDown× per decision. The second return reports whether any quota was
// clamped, so the audit record carries the fact and commit counts it.
func (c *Controller) limitStep(quotas map[string]float64) (map[string]float64, bool) {
	last := c.st.LastQuotas
	if last == nil || (c.Cfg.MaxStepUp <= 0 && c.Cfg.MaxStepDown <= 0) {
		return quotas, false
	}
	limited := false
	for k, v := range quotas {
		old, ok := last[k]
		if !ok || old <= 0 {
			continue
		}
		if c.Cfg.MaxStepUp > 0 && v > old*c.Cfg.MaxStepUp {
			v = old * c.Cfg.MaxStepUp
			limited = true
		}
		if c.Cfg.MaxStepDown > 0 && v < old*c.Cfg.MaxStepDown {
			v = old * c.Cfg.MaxStepDown
			limited = true
		}
		quotas[k] = v
	}
	return quotas, limited
}
