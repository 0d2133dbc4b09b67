package obs

// FleetObs observes the sharded multi-tenant control plane: per-tenant tick
// and SLO accounting under a {tenant} label, fleet-wide aggregates, and the
// shared prediction cache's counters. Like every hook
// in this package it is a valid no-op when nil. Its methods are called from
// many worker goroutines concurrently; the registry's families are
// mutex-guarded and the metric values atomic, so no extra locking is needed
// here.
type FleetObs struct {
	t *Telemetry
}

// NewFleetObs returns a fleet hook, or nil when t is nil.
func NewFleetObs(t *Telemetry) *FleetObs {
	if t == nil {
		return nil
	}
	return &FleetObs{t: t}
}

// TenantTick records one completed tenant tick and its SLO outcome.
func (o *FleetObs) TenantTick(tenant string, p99 float64, violated bool, tickS float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_fleet_tenant_ticks_total",
		"Completed control ticks per tenant.",
		Labels{"tenant": tenant}).Inc()
	o.t.Reg.Counter("graf_fleet_ticks_total",
		"Completed control ticks across the whole fleet.", nil).Inc()
	o.t.Reg.Gauge("graf_fleet_tenant_p99_seconds",
		"Most recent per-tenant end-to-end p99 latency.",
		Labels{"tenant": tenant}).Set(p99)
	if violated {
		o.t.Reg.Counter("graf_fleet_tenant_violation_seconds_total",
			"Accumulated SLO violation-seconds per tenant.",
			Labels{"tenant": tenant}).Add(tickS)
	}
}

// TenantPanic records a contained per-tenant panic: the tenant is degraded
// and skipped from then on, the process and its neighbours are unaffected.
func (o *FleetObs) TenantPanic(tenant string) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_fleet_tenant_panics_total",
		"Contained per-tenant panics (tenant degraded, process survives).",
		Labels{"tenant": tenant}).Inc()
}

// Round records fleet-level occupancy after each barrier round.
func (o *FleetObs) Round(round, tenants, degraded int) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_fleet_rounds_total",
		"Completed fleet scheduling rounds.", nil).Inc()
	o.t.Reg.Gauge("graf_fleet_tenants",
		"Tenants configured in the fleet.", nil).Set(float64(tenants))
	o.t.Reg.Gauge("graf_fleet_tenants_degraded",
		"Tenants currently degraded (panicked and quarantined).", nil).Set(float64(degraded))
}

// Brownout records one per-tenant brownout-ladder transition and the rung
// the tenant now sits on (0=full … 3=hold).
func (o *FleetObs) Brownout(tenant, from, to string, step int) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_fleet_brownout_transitions_total",
		"Brownout-ladder transitions per tenant and direction.",
		Labels{"tenant": tenant, "from": from, "to": to}).Inc()
	o.t.Reg.Gauge("graf_fleet_brownout_step",
		"Current brownout rung per tenant (0=full, 1=warm, 2=heuristic, 3=hold).",
		Labels{"tenant": tenant}).Set(float64(step))
}

// CacheStats publishes the prediction cache's absolute counters; the fleet
// calls it once per round rather than once per lookup to keep the hot path
// off the registry.
func (o *FleetObs) CacheStats(hits, misses, size int64) {
	if o == nil {
		return
	}
	o.t.Reg.Gauge("graf_fleet_cache_hits_total",
		"Quantized prediction-cache hits.", nil).Set(float64(hits))
	o.t.Reg.Gauge("graf_fleet_cache_misses_total",
		"Quantized prediction-cache misses.", nil).Set(float64(misses))
	o.t.Reg.Gauge("graf_fleet_cache_entries",
		"Live entries in the prediction cache.", nil).Set(float64(size))
}
