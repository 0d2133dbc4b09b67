// Package rpc is the multi-process fleet control plane: a stdlib HTTP/JSON
// protocol between a thin router (tenant placement, health checking,
// migration, shard-loss rebalancing) and N grafd shard processes, each
// running a dynamic fleet.Fleet as its slice of the tenant population.
//
// The plane's load-bearing property is inherited from the fleet: tenant
// execution is deterministic — same spec, same seed, same tick count ⇒
// byte-identical audit logs, regardless of which process runs the tenant.
// Migration and crash recovery therefore never serialize engine state; they
// rebuild the tenant from its spec on the target shard and fast-forward it
// by deterministic re-execution, then verify the regenerated audit bytes
// against what the previous owner durably recorded and the controller-state
// digest against the last checkpoint. Lossless is checked, not assumed.
package rpc

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"graf/internal/app"
	"graf/internal/azure"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/forecast"
	"graf/internal/gnn"
	"graf/internal/lifecycle"
	"graf/internal/obs"
	"graf/internal/overload"
	"graf/internal/workload"
)

// Spec is the whole per-tenant policy, in portable form: the local daemon
// builds its fleet from one, and the router ships the same value to every
// shard in /v1/configure — everything needed to rebuild any tenant
// identically in any process. Model weights are NOT in the spec — every
// process loads the same .graf artifact; the spec carries only what varies
// per run. Validate is the only place a policy is checked; FleetConfig and
// TenantConfig are the only places it is materialised.
type Spec struct {
	// App names the builtin application graph (app.ByName).
	App string `json:"app"`
	// Shape selects the workload source: "const", "surge" (a step at
	// SurgeAtS), "diurnal" (a seeded 240 s day/night cycle around 140 req/s)
	// or "azure" (closed-loop replay of the Fig-20 function trace).
	Shape string `json:"shape"`
	// Rate is the constant rate, or the surge base (req/s).
	Rate float64 `json:"rate"`
	// SurgeTo/SurgeAtS parameterize the "surge" shape (StepRate).
	SurgeTo  float64 `json:"surge_to,omitempty"`
	SurgeAtS float64 `json:"surge_at_s,omitempty"`
	// Seed is the fleet seed every per-tenant engine seed derives from.
	Seed int64 `json:"seed"`
	// TickS is the control-tick quantum in simulated seconds.
	TickS float64 `json:"tick_s"`
	// WarmStart pre-provisions each tenant near expected demand.
	WarmStart bool `json:"warm_start"`
	// Workers sizes each shard process's tick worker pool (0 = default).
	Workers int `json:"workers,omitempty"`
	// AuditMemory bounds per-tenant in-memory audit retention (0 = default).
	AuditMemory int `json:"audit_memory,omitempty"`
	// Trace enables control-plane tracing in every process built from this
	// spec; each shard derives its tracer seed from Seed plus its own
	// address, so same-seed runs mint identical (per-process) ID streams.
	Trace bool `json:"trace,omitempty"`
	// SLOBudget, when set, enables the per-tenant error-budget monitor with
	// identical configuration in every process — a determinism invariant:
	// the single-process reference and the distributed run must charge the
	// same budget at the same ticks.
	SLOBudget *obs.SLOConfig `json:"slo_budget,omitempty"`
	// Brownout, when non-empty, is the scripted tick-keyed brownout
	// schedule installed in every process built from this spec. Like
	// SLOBudget it is a determinism invariant: the schedule is a pure
	// function of the tick index, so the single-process reference and the
	// distributed run degrade identically and stay byte-comparable.
	// Adaptive (governor-driven) brownouts live shard-side instead and are
	// replayed from audit bytes on restore.
	Brownout []fleet.BrownoutPhase `json:"brownout,omitempty"`

	// DurS is the run horizon in simulated seconds: the length the seeded
	// diurnal series is generated for (0 = 1800).
	DurS int `json:"dur_s,omitempty"`
	// SLOMS overrides the model artifact's trained SLO for every tenant
	// (milliseconds; 0 = the artifact's).
	SLOMS int `json:"slo_ms,omitempty"`
	// Forecast, when non-empty, has every controller plan quotas on a
	// forecasted workload rate: the predictor ("hw" | "ar" | "naive"), how
	// many decision intervals ahead (0 auto-sizes to the cluster's startup
	// curve) and the residual quantile planned against (0 = 0.95).
	Forecast         string  `json:"forecast,omitempty"`
	HorizonTicks     int     `json:"horizon_ticks,omitempty"`
	ForecastQuantile float64 `json:"forecast_quantile,omitempty"`
	// Lifecycle runs the model-trust lifecycle (drift detection, shadow
	// retraining, gated promotion, rollback) for every tenant.
	Lifecycle bool `json:"lifecycle,omitempty"`
}

// diurnalPeriodS is the "diurnal" cycle length: compressed enough that a
// 600 s run traverses the cycle twice after the forecaster's one warm-up
// period, long enough that the climb outpaces reactive scaling.
const diurnalPeriodS = 240.0

// maxRate bounds Spec.Rate/SurgeTo: the default surge doubles the base, and
// an infinite rate divides the generator's inter-arrival time to zero.
const maxRate = 1e6

// maxDurS bounds Spec.DurS (a week): the diurnal series holds one sample per
// second, so an absurd horizon from the wire must not become an allocation.
// It bounds Spec.TickS, and the simulated time one tick or admit request may
// run, for the same reason in wall time: a shard runs it under its mutex.
const maxDurS = 7 * 24 * 3600

// minTickS is the shortest tick quantum a spec may ask for (0 aside, which
// means 5 s). With the bound on a request's simulated time it caps the ticks
// one tick or admit request runs at maxDurS.
const minTickS = 1

// maxWorkers bounds Spec.Workers: a dynamic fleet sizes its shard table and
// each round's goroutines from it, so a wire value must not become billions of
// slots, and no shard host has more cores than this to give a tick pool.
const maxWorkers = 1024

// ParseBrownout parses a -brownout flag into a scripted schedule. The flag
// is a comma-separated list of phases, each FROM[-TO]:STEP with tick indices
// (TO exclusive; omitted = until the end of the run) and a ladder rung name:
//
//	12-24:heuristic        ticks 12..23 at the heuristic rung
//	12-24:heuristic,30:warm  ...then warm from tick 30 onward
//
// Later phases win on overlap, matching fleet.BrownoutPhase semantics.
func ParseBrownout(s string) ([]fleet.BrownoutPhase, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var sched []fleet.BrownoutPhase
	for _, part := range strings.Split(s, ",") {
		rangeS, stepS, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("rpc: brownout phase %q: want FROM[-TO]:STEP", part)
		}
		step, err := overload.ParseStep(stepS)
		if err != nil {
			return nil, fmt.Errorf("rpc: brownout phase %q: %v", part, err)
		}
		fromS, toS, ranged := strings.Cut(rangeS, "-")
		from, err := strconv.Atoi(fromS)
		if err != nil || from < 0 {
			return nil, fmt.Errorf("rpc: brownout phase %q: FROM tick %q must be a non-negative integer", part, fromS)
		}
		to := 0
		if ranged {
			to, err = strconv.Atoi(toS)
			if err != nil || to <= from {
				return nil, fmt.Errorf("rpc: brownout phase %q: TO tick %q must be an integer above FROM", part, toS)
			}
		}
		sched = append(sched, fleet.BrownoutPhase{FromTick: from, ToTick: to, Step: step})
	}
	return sched, nil
}

// Validate rejects specs that could not produce a deterministic fleet. It is
// the one policy check: flags and wire bodies alike pass through it.
func (s Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("rpc: spec has no application")
	}
	if _, err := app.ByName(s.App); err != nil {
		return err
	}
	switch s.Shape {
	case "", "const", "surge", "diurnal", "azure":
	default:
		return fmt.Errorf("rpc: unknown rate shape %q (const | surge | diurnal | azure)", s.Shape)
	}
	if !(s.Rate > 0 && s.Rate <= maxRate) || s.SurgeTo > maxRate {
		return fmt.Errorf("rpc: spec rate %v (surge to %v) must be in (0, %g] req/s", s.Rate, s.SurgeTo, float64(maxRate))
	}
	if !(s.TickS == 0 || s.TickS >= minTickS && s.TickS <= maxDurS) {
		return fmt.Errorf("rpc: spec tick quantum %v s must be 0 (= 5) or in [%d, %d]", s.TickS, minTickS, maxDurS)
	}
	if s.Workers > maxWorkers {
		return fmt.Errorf("rpc: spec asks for %d tick workers, more than %d", s.Workers, maxWorkers)
	}
	if s.DurS < 0 || s.DurS > maxDurS {
		return fmt.Errorf("rpc: spec horizon %d s must be in [0, %d]", s.DurS, maxDurS)
	}
	if s.SLOMS < 0 {
		return fmt.Errorf("rpc: spec SLO %d ms must be non-negative (0 = the model's)", s.SLOMS)
	}
	if b := s.SLOBudget; b != nil && (b.Budget < 0 || b.Budget >= 1) {
		return fmt.Errorf("rpc: SLO budget %v must be in [0,1) (fraction of time allowed in violation)", b.Budget)
	}
	for _, p := range s.Brownout {
		if p.Step != overload.ClampStep(p.Step) {
			return fmt.Errorf("rpc: brownout phase step %d is off the ladder (0..%d)", p.Step, overload.StepHold)
		}
		if p.FromTick < 0 || (p.ToTick > 0 && p.ToTick <= p.FromTick) {
			return fmt.Errorf("rpc: brownout phase ticks %d-%d: FROM must be non-negative and TO above it (or 0 = open-ended)", p.FromTick, p.ToTick)
		}
	}
	switch s.Forecast {
	case "":
		if s.HorizonTicks != 0 || s.ForecastQuantile != 0 {
			return fmt.Errorf("rpc: forecast horizon/quantile set without a forecast model")
		}
	case "hw", "ar", "naive":
		if s.HorizonTicks < 0 {
			return fmt.Errorf("rpc: forecast horizon %d ticks must be non-negative (0 auto-sizes to the startup curve)", s.HorizonTicks)
		}
		if s.ForecastQuantile < 0 || s.ForecastQuantile >= 1 {
			return fmt.Errorf("rpc: forecast quantile %v must be in (0,1), or 0 for the default 0.95", s.ForecastQuantile)
		}
	default:
		return fmt.Errorf("rpc: unknown forecast model %q (hw | ar | naive)", s.Forecast)
	}
	return nil
}

// azureTrace is the per-minute invocation series the "azure" shape replays.
func azureTrace() []float64 { return azure.Generate(azure.DefaultTrace()) }

// RateFn materializes the spec's arrival-rate shape (for "azure", the trace's
// open-loop equivalent, which sizes the warm start). Every process building
// a tenant from the same spec gets the same function — a migration invariant.
func (s Spec) RateFn() func(float64) float64 {
	switch s.Shape {
	case "diurnal":
		// A warm-started tenant has already run a simulated minute when its
		// controller takes over: the series is that much longer, and phased
		// so the controller starts where the cycle does — at the mean,
		// heading up (Holt-Winters seeds its level from the first cycle).
		warmS := 0
		if s.WarmStart {
			warmS = 60
		}
		return workload.SeriesRate(workload.Diurnal(workload.DiurnalConfig{
			Seed: s.Seed, Seconds: s.DurS + warmS, PeriodS: diurnalPeriodS, Base: 140, Amp: 100,
			Phase: -2 * math.Pi * float64(warmS) / diurnalPeriodS,
		}), 1)
	case "azure":
		return workload.TraceRate(azureTrace())
	case "surge":
		to, at := s.SurgeTo, s.SurgeAtS
		if to <= 0 {
			to = 2 * s.Rate
		}
		if at <= 0 {
			at = 120
		}
		return workload.StepRate(s.Rate, to, at)
	}
	return workload.ConstRate(s.Rate)
}

// TenantConfig builds the fleet tenant description for one tenant ID. The
// zero tenant Seed means the fleet derives it from Spec.Seed and the ID —
// the same derivation in every process.
func (s Spec) TenantConfig(id string) fleet.TenantConfig {
	tc := fleet.TenantConfig{ID: id, Rate: s.RateFn(), SLO: float64(s.SLOMS) / 1000}
	if s.Shape == "azure" {
		tc.Users = workload.TraceUsers(azureTrace(), 24)
	}
	return tc
}

// ModelBundle is the process-local model artifact: what each grafd process
// loads from the same .graf file (graf.TrainedModel.Bundle), combined with a
// spec to build its fleet.
type ModelBundle struct {
	Model            *gnn.Model
	Bounds           core.Bounds
	SLO              float64 // seconds
	MinRate, MaxRate float64

	// Samples is the artifact's training set, which lifecycle retraining
	// replays onto the drifted surface.
	Samples []gnn.Sample
	// ArchiveDir, when set, receives every lifecycle model generation as a
	// loadable model file under <ArchiveDir>/<tenant>/, written by SaveModel.
	ArchiveDir string
	SaveModel  func(m *gnn.Model, path string) error
}

// FleetConfig combines the portable spec with the shard-local model bundle
// into a dynamic fleet configuration. auditDir is the shared per-tenant
// audit mirror directory ("" = in-memory only).
func (s Spec) FleetConfig(b ModelBundle, auditDir string) (fleet.Config, error) {
	if err := s.Validate(); err != nil {
		return fleet.Config{}, err
	}
	a, err := app.ByName(s.App)
	if err != nil {
		return fleet.Config{}, err
	}
	if b.Model == nil {
		return fleet.Config{}, fmt.Errorf("rpc: model bundle has no model")
	}
	if b.Model.Cfg.Nodes != len(a.Services) {
		return fleet.Config{}, fmt.Errorf("rpc: model trained for %d services, app %q has %d",
			b.Model.Cfg.Nodes, s.App, len(a.Services))
	}
	cfg := fleet.Config{
		App:         a,
		Model:       b.Model,
		Bounds:      b.Bounds,
		SLO:         b.SLO,
		MinRate:     b.MinRate,
		MaxRate:     b.MaxRate,
		Workers:     s.Workers,
		TickS:       s.TickS,
		Seed:        s.Seed,
		WarmStart:   s.WarmStart,
		Dynamic:     true,
		AuditDir:    auditDir,
		AuditMemory: s.AuditMemory,
		SLOBudget:   s.SLOBudget,
		Brownout:    s.Brownout,
	}
	if s.Forecast != "" {
		ccfg := core.DefaultControllerConfig(b.SLO) // tenants apply their own SLO
		ccfg.Forecast = s.forecastConfig()
		cfg.Controller = &ccfg
	}
	if s.Lifecycle {
		cfg.Lifecycle = &lifecycle.Config{BaseSamples: b.Samples, Dir: b.ArchiveDir}
		cfg.SaveModel = b.SaveModel
	}
	return cfg, nil
}

// forecastConfig sizes the forecaster for a controller deciding every
// core.IntervalS seconds.
func (s Spec) forecastConfig() forecast.Config {
	fc := forecast.Config{
		Enabled:      true,
		Model:        s.Forecast,
		HorizonTicks: s.HorizonTicks,
		Quantile:     s.ForecastQuantile,
	}
	if s.Shape == "diurnal" {
		// Match the seasonal period to the shape so Holt-Winters learns the
		// actual cycle rather than an aliased one.
		fc.PeriodTicks = int(diurnalPeriodS / core.IntervalS)
	}
	if fc.HorizonTicks == 0 {
		// Far enough ahead that a typical pre-warm batch (4 instances on the
		// Figure-1 startup curve) is ready when the forecasted rate arrives.
		cc := cluster.DefaultConfig()
		fc.HorizonTicks = forecast.HorizonForStartup(cc.StartupBaseS, cc.StartupSlopeS, 4, core.IntervalS)
	}
	return fc
}
