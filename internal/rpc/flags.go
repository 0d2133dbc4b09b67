package rpc

import (
	"flag"
	"fmt"

	"graf/internal/obs"
)

// tickS is the control-tick quantum of every fleet built from flags.
const tickS = 5

// Flags is the command-line form of a fleet run, shared by grafd and
// grafrouter: which artifact, how many tenants for how long, where durable
// state goes, and the per-tenant policy. RegisterFlags is the only place
// these flags are declared and Spec the only place they become a Spec, so a
// policy flag means the same thing — and is available — in every mode.
type Flags struct {
	Model    string
	Tenants  int
	Ckpt     string
	AuditDir string

	spec      Spec // the flags that are spec fields bind straight into it
	sloBudget float64
	brownout  string
}

// RegisterFlags declares the shared run flags on fs. tenants is the binary's
// default -fleet size.
func RegisterFlags(fs *flag.FlagSet, tenants int) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Model, "model", "", "trained model from graftrain (every process of a routed fleet loads the same artifact)")
	fs.IntVar(&f.Tenants, "fleet", tenants, "number of tenant applications, each with its own simulated cluster and controller")
	fs.StringVar(&f.Ckpt, "ckpt", "", "checkpoint directory: per-tenant snapshots a restart, migration or respawn restores from and verifies against")
	fs.StringVar(&f.AuditDir, "audit-dir", "", "mirror every tenant's audit log into this directory as <tenant>.jsonl")
	fs.StringVar(&f.spec.App, "app", "online-boutique", "builtin application graph (online-boutique | social-network | robot-shop | bookinfo | chain-N)")
	fs.StringVar(&f.spec.Shape, "shape", "const", "workload source: const | surge | diurnal | azure")
	fs.Float64Var(&f.spec.Rate, "rate", 150, "constant rate, or surge base (req/s)")
	fs.Int64Var(&f.spec.Seed, "seed", 1, "fleet seed (per-tenant engine seeds derive from it)")
	fs.IntVar(&f.spec.DurS, "dur", 600, "simulated duration (s)")
	fs.IntVar(&f.spec.SLOMS, "slo", 0, "latency SLO (ms) for every tenant; 0 = the model's trained SLO")
	fs.Float64Var(&f.sloBudget, "slo-budget", 0, "per-tenant SLO error budget as allowed violation fraction (e.g. 0.02); enables multi-window burn-rate telemetry (0 = off)")
	fs.StringVar(&f.brownout, "brownout", "", "scripted brownout schedule FROM[-TO]:STEP[,...] in ticks, e.g. 12-24:heuristic (STEP: full | warm | heuristic | hold)")
	fs.StringVar(&f.spec.Forecast, "forecast", "", "scale ahead of the surge: plan quotas on a forecasted workload rate (hw | ar | naive)")
	fs.IntVar(&f.spec.HorizonTicks, "horizon-ticks", 0, "with -forecast: decision intervals to forecast ahead (0 auto-sizes to the startup curve)")
	fs.Float64Var(&f.spec.ForecastQuantile, "forecast-quantile", 0, "with -forecast: plan against this quantile of the forecast's residual spread (0 = default 0.95)")
	fs.BoolVar(&f.spec.Lifecycle, "lifecycle", false, "run the model-trust lifecycle per tenant: drift detection, heuristic fallback, shadow retraining, gated canary promotion, rollback")
	return f
}

// Spec turns the parsed flags into the validated per-tenant policy.
func (f *Flags) Spec() (Spec, error) {
	s := f.spec
	if f.Tenants <= 0 {
		return s, fmt.Errorf("-fleet %d must be positive", f.Tenants)
	}
	if s.DurS <= 0 {
		return s, fmt.Errorf("-dur %d s must be positive", s.DurS)
	}
	s.TickS, s.WarmStart = tickS, true
	if f.sloBudget != 0 {
		s.SLOBudget = &obs.SLOConfig{Budget: f.sloBudget}
	}
	var err error
	if s.Brownout, err = ParseBrownout(f.brownout); err != nil {
		return s, fmt.Errorf("-brownout: %v", err)
	}
	return s, s.Validate()
}

// Rounds is the run length in control ticks.
func (f *Flags) Rounds() int { return f.spec.DurS / tickS }

// TenantIDs names the run's tenants: tenant-00, tenant-01, ...
func (f *Flags) TenantIDs() []string {
	ids := make([]string, f.Tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return ids
}
