package obs

// SLO error-budget accounting (DESIGN.md §3i). The monitor turns the
// fleet's per-tick violation verdicts into the SRE-workbook multi-window
// burn-rate signal: an error budget (the fraction of time a tenant is
// allowed to violate its SLO), a fast window that catches severe burn
// within seconds, and a slow window that catches sustained moderate burn.
// Under a sustained violation the fast window always fires first — its
// threshold is crossed after FastBurn·Budget·FastWindowS violation-seconds,
// the slow window only after SlowBurn·Budget·SlowWindowS — a property the
// slo-burn experiment pins with a regression test.
//
// The monitor runs on simulated time and is fully deterministic for a
// given tick sequence, so its alerts can be recorded in the audit stream
// without breaking same-seed byte-identity between single-process and
// distributed runs.

import "sync"

// SLOConfig parameterizes the error-budget monitor. The zero value of any
// field selects its default.
type SLOConfig struct {
	// Budget is the allowed violating fraction of time (default 0.02: the
	// tenant may violate its SLO 2% of the time before the budget is gone).
	Budget float64 `json:"budget,omitempty"`
	// FastWindowS / SlowWindowS are the burn-rate windows in simulated
	// seconds (defaults 60 / 600).
	FastWindowS float64 `json:"fast_window_s,omitempty"`
	SlowWindowS float64 `json:"slow_window_s,omitempty"`
	// FastBurn / SlowBurn are the alert thresholds in budget-multiples
	// (defaults 10 / 2): burn 10 means the budget is being consumed ten
	// times faster than allowed.
	FastBurn float64 `json:"fast_burn,omitempty"`
	SlowBurn float64 `json:"slow_burn,omitempty"`
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Budget <= 0 {
		c.Budget = 0.02
	}
	if c.FastWindowS <= 0 {
		c.FastWindowS = 60
	}
	if c.SlowWindowS <= 0 {
		c.SlowWindowS = 600
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 10
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 2
	}
	return c
}

// SLOAlert is a rising-edge burn-rate firing for one tenant and window.
type SLOAlert struct {
	Tenant string  `json:"tenant"`
	Window string  `json:"window"` // "fast" or "slow"
	Burn   float64 `json:"burn"`   // budget-multiples at firing time
	At     float64 `json:"at"`     // simulated seconds
}

type sloSample struct{ at, violS float64 }

type sloState struct {
	samples    []sloSample
	totalViolS float64
	fast, slow bool // currently firing
}

// SLOMonitor tracks per-tenant violation-seconds against an error budget
// and computes fast/slow burn rates. Safe for concurrent use across the
// fleet worker pool (each tenant's timeline is still sequential). A nil
// monitor is a no-op.
type SLOMonitor struct {
	cfg SLOConfig
	reg *Registry

	mu      sync.Mutex
	tenants map[string]*sloState
}

// NewSLOMonitor builds a monitor publishing graf_slo_* metrics into reg
// (nil reg = accounting only).
func NewSLOMonitor(cfg SLOConfig, reg *Registry) *SLOMonitor {
	return &SLOMonitor{cfg: cfg.withDefaults(), reg: reg, tenants: map[string]*sloState{}}
}

// Config returns the monitor's effective (defaulted) configuration.
func (m *SLOMonitor) Config() SLOConfig {
	if m == nil {
		return SLOConfig{}.withDefaults()
	}
	return m.cfg
}

// Observe records one tick verdict for a tenant at simulated time now and
// returns any rising-edge alerts it caused. A window stops firing once its
// burn drops back below threshold, re-arming the edge.
func (m *SLOMonitor) Observe(tenant string, now float64, violated bool, tickS float64) []SLOAlert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	st, ok := m.tenants[tenant]
	if !ok {
		st = &sloState{}
		m.tenants[tenant] = st
	}
	violS := 0.0
	if violated {
		violS = tickS
	}
	st.samples = append(st.samples, sloSample{at: now, violS: violS})
	st.totalViolS += violS
	// Prune to the slow window (the larger of the two).
	cut := now - m.cfg.SlowWindowS
	keep := st.samples[:0]
	for _, s := range st.samples {
		if s.at > cut {
			keep = append(keep, s)
		}
	}
	st.samples = keep

	fastBurn := m.burnLocked(st, now, m.cfg.FastWindowS)
	slowBurn := m.burnLocked(st, now, m.cfg.SlowWindowS)

	var alerts []SLOAlert
	if firing := fastBurn >= m.cfg.FastBurn; firing != st.fast {
		st.fast = firing
		if firing {
			alerts = append(alerts, SLOAlert{Tenant: tenant, Window: "fast", Burn: fastBurn, At: now})
		}
	}
	if firing := slowBurn >= m.cfg.SlowBurn; firing != st.slow {
		st.slow = firing
		if firing {
			alerts = append(alerts, SLOAlert{Tenant: tenant, Window: "slow", Burn: slowBurn, At: now})
		}
	}
	totalViolS := st.totalViolS
	m.mu.Unlock()

	if m.reg != nil {
		m.reg.Gauge("graf_slo_burn_rate",
			"Error-budget burn rate in budget-multiples per tenant and window.",
			Labels{"tenant": tenant, "window": "fast"}).Set(fastBurn)
		m.reg.Gauge("graf_slo_burn_rate",
			"Error-budget burn rate in budget-multiples per tenant and window.",
			Labels{"tenant": tenant, "window": "slow"}).Set(slowBurn)
		m.reg.Counter("graf_slo_violation_seconds_total",
			"Cumulative SLO violation-seconds charged against the budget.",
			Labels{"tenant": tenant}).Add(violS)
		remaining := 1 - totalViolS/(m.cfg.Budget*m.cfg.SlowWindowS)
		if remaining < 0 {
			remaining = 0
		}
		m.reg.Gauge("graf_slo_budget_remaining_ratio",
			"Fraction of the slow-window error budget not yet consumed (floored at 0).",
			Labels{"tenant": tenant}).Set(remaining)
		for _, a := range alerts {
			m.reg.Counter("graf_slo_alerts_total",
				"Rising-edge burn-rate alert firings per tenant and window.",
				Labels{"tenant": tenant, "window": a.Window}).Inc()
		}
	}
	return alerts
}

// burnLocked computes violation-seconds inside the trailing window divided
// by the budget's allowance for that window.
func (m *SLOMonitor) burnLocked(st *sloState, now, window float64) float64 {
	cut := now - window
	viol := 0.0
	for _, s := range st.samples {
		if s.at > cut {
			viol += s.violS
		}
	}
	return viol / (window * m.cfg.Budget)
}
