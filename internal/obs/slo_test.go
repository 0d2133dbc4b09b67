package obs

import (
	"strings"
	"testing"
)

// driveViolation feeds a sustained violation into a fresh monitor tick by
// tick and returns every alert in firing order.
func driveViolation(cfg SLOConfig, ticks int, tickS float64) []SLOAlert {
	m := NewSLOMonitor(cfg, nil)
	var alerts []SLOAlert
	for i := 1; i <= ticks; i++ {
		now := float64(i) * tickS
		alerts = append(alerts, m.Observe("tenant-00", now, true, tickS)...)
	}
	return alerts
}

// TestSLOFastFiresBeforeSlow pins the ordering property the slo-burn
// experiment demonstrates: under a sustained violation the fast window's
// threshold (FastBurn·Budget·FastWindowS violation-seconds) is crossed
// strictly before the slow window's (SlowBurn·Budget·SlowWindowS).
func TestSLOFastFiresBeforeSlow(t *testing.T) {
	cfg := SLOConfig{Budget: 0.02, FastWindowS: 60, SlowWindowS: 600, FastBurn: 10, SlowBurn: 2}
	alerts := driveViolation(cfg, 40, 1)
	if len(alerts) < 2 {
		t.Fatalf("sustained violation produced %d alerts, want fast then slow", len(alerts))
	}
	if alerts[0].Window != "fast" {
		t.Errorf("first alert window = %q, want fast", alerts[0].Window)
	}
	if alerts[1].Window != "slow" {
		t.Errorf("second alert window = %q, want slow", alerts[1].Window)
	}
	if !(alerts[0].At < alerts[1].At) {
		t.Errorf("fast fired at %gs, slow at %gs: fast must fire strictly first", alerts[0].At, alerts[1].At)
	}
	// Defaults: fast needs 10·0.02·60 = 12 violation-seconds, slow 2·0.02·600 = 24.
	if alerts[0].At != 12 {
		t.Errorf("fast fired at %gs, want 12s", alerts[0].At)
	}
	if alerts[1].At != 24 {
		t.Errorf("slow fired at %gs, want 24s", alerts[1].At)
	}
}

// TestSLOFastBeforeSlowAcrossConfigs sweeps budgets/windows with the
// fast-threshold < slow-threshold invariant and re-asserts the ordering.
func TestSLOFastBeforeSlowAcrossConfigs(t *testing.T) {
	cfgs := []SLOConfig{
		{},                                  // all defaults
		{Budget: 0.05},                      // larger budget
		{FastWindowS: 30, SlowWindowS: 300}, // tighter windows
		{FastBurn: 14.4, SlowBurn: 6, FastWindowS: 300, SlowWindowS: 3600}, // SRE-workbook pair
	}
	for i, cfg := range cfgs {
		eff := NewSLOMonitor(cfg, nil).Config()
		fastS := eff.FastBurn * eff.Budget * eff.FastWindowS
		slowS := eff.SlowBurn * eff.Budget * eff.SlowWindowS
		if !(fastS < slowS) {
			t.Fatalf("cfg %d: fast threshold %gs not below slow %gs — invalid sweep entry", i, fastS, slowS)
		}
		alerts := driveViolation(cfg, int(slowS)+10, 1)
		var fastAt, slowAt float64 = -1, -1
		for _, a := range alerts {
			if a.Window == "fast" && fastAt < 0 {
				fastAt = a.At
			}
			if a.Window == "slow" && slowAt < 0 {
				slowAt = a.At
			}
		}
		if fastAt < 0 || slowAt < 0 || !(fastAt < slowAt) {
			t.Errorf("cfg %d: fast@%g slow@%g — fast must fire strictly first", i, fastAt, slowAt)
		}
	}
}

// TestSLORearm checks the rising-edge contract: recovery clears the firing
// state, and a second sustained violation alerts again.
func TestSLORearm(t *testing.T) {
	cfg := SLOConfig{Budget: 0.02, FastWindowS: 60, SlowWindowS: 600}
	m := NewSLOMonitor(cfg, nil)
	now := 0.0
	tickObserve := func(violated bool) []SLOAlert {
		now += 1
		return m.Observe("t", now, violated, 1)
	}
	fastCount := 0
	for i := 0; i < 20; i++ {
		for _, a := range tickObserve(true) {
			if a.Window == "fast" {
				fastCount++
			}
		}
	}
	if fastCount != 1 {
		t.Fatalf("first burn fired fast %d times, want exactly 1", fastCount)
	}
	// Recover long enough for the fast window to drain, then burn again.
	for i := 0; i < 70; i++ {
		for _, a := range tickObserve(false) {
			t.Errorf("alert %+v during recovery", a)
		}
	}
	for i := 0; i < 20; i++ {
		for _, a := range tickObserve(true) {
			if a.Window == "fast" {
				fastCount++
			}
		}
	}
	if fastCount != 2 {
		t.Errorf("fast fired %d times total, want 2 (re-armed edge)", fastCount)
	}
}

// TestSLOBurnValues checks the burn math directly: 30 violating seconds in
// a 60s window at budget 0.02 is 30/(60·0.02) = 25 budget-multiples.
func TestSLOBurnValues(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{Budget: 0.02, FastWindowS: 60, SlowWindowS: 600}, nil)
	for i := 1; i <= 30; i++ {
		m.Observe("t", float64(i), true, 1)
	}
	fast, slow := m.Burn("t")
	if fast != 25 {
		t.Errorf("fast burn = %g, want 25", fast)
	}
	if slow != 2.5 {
		t.Errorf("slow burn = %g, want 2.5", slow)
	}
	if f, s := m.Burn("unknown"); f != 0 || s != 0 {
		t.Errorf("unknown tenant burn = %g/%g, want 0/0", f, s)
	}
}

// TestSLOMetrics checks the graf_slo_* families land in the registry with
// tenant/window labels.
func TestSLOMetrics(t *testing.T) {
	reg := newRegistry()
	m := NewSLOMonitor(SLOConfig{}, reg)
	for i := 1; i <= 15; i++ {
		m.Observe("tenant-07", float64(i), true, 1)
	}
	out := reg.Expose()
	for _, want := range []string{
		`graf_slo_burn_rate{tenant="tenant-07",window="fast"}`,
		`graf_slo_burn_rate{tenant="tenant-07",window="slow"}`,
		`graf_slo_violation_seconds_total{tenant="tenant-07"} 15`,
		`graf_slo_budget_remaining_ratio{tenant="tenant-07"}`,
		`graf_slo_alerts_total{tenant="tenant-07",window="fast"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSLONilMonitor: a nil monitor is a no-op (the budget-disabled path).
func TestSLONilMonitor(t *testing.T) {
	var m *SLOMonitor
	if got := m.Observe("t", 1, true, 1); got != nil {
		t.Errorf("nil monitor returned alerts %v", got)
	}
	if f, s := m.Burn("t"); f != 0 || s != 0 {
		t.Error("nil monitor burn not zero")
	}
	if m.Config().Budget != 0.02 {
		t.Error("nil monitor Config() should report defaults")
	}
}

// TestSLODeterministic: the monitor's alert stream is a pure function of
// the tick verdicts — replaying the same sequence reproduces it exactly,
// which is what lets alerts live in the byte-compared audit stream.
func TestSLODeterministic(t *testing.T) {
	run := func() []SLOAlert {
		m := NewSLOMonitor(SLOConfig{}, nil)
		var out []SLOAlert
		for i := 1; i <= 100; i++ {
			violated := i%3 != 0 // any fixed pattern
			out = append(out, m.Observe("t", float64(i)*5, violated, 5)...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("alert counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("alert %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
