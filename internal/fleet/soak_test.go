package fleet

import (
	"runtime"
	"testing"

	"graf/internal/core"
)

// A tenant's memory does not depend on how long it has run: its telemetry
// windows hold one look-back, its trace rings their cap, and the request path
// recycles everything else. The live heap after 2000 decisions is the live
// heap after 500, the audit buffer aside (it is the tenant's output and
// grows by one record per decision).
func TestTenantHeapIsFlatInRunLength(t *testing.T) {
	// A tenant in its steady state: capacity enough that the SLO holds
	// whatever the untrained model says, and no breaker to second-guess it,
	// so after the first solve hysteresis keeps the configuration.
	cfg := testConfig(1, 1, 1)
	for i := range cfg.Bounds.Lo {
		cfg.Bounds.Lo[i] = 1000
	}
	ccfg := core.DefaultControllerConfig(cfg.SLO)
	ccfg.BreakerBand = 0
	cfg.Controller = &ccfg
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	tn := f.Tenants()[0]
	liveAfter := func(decisions int) float64 {
		for tn.Ticks() < decisions {
			f.Round()
		}
		if tn.Degraded() {
			t.Fatalf("tenant degraded at tick %d: %v", tn.Ticks(), tn.PanicValue())
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) - float64(tn.audit.Cap())
	}
	early, late := liveAfter(500), liveAfter(2000)
	t.Logf("live heap less audit: %.0f KB after 500 decisions, %.0f KB after 2000 (%d requests, %d solves, %d boosts)",
		early/1024, late/1024, tn.Cluster.E2EWindow().Len(), tn.Ctl.Solves(), tn.Ctl.Boosts())
	if late > 1.05*early {
		t.Errorf("live heap grew from %.0f KB at decision 500 to %.0f KB at decision 2000, want within 5%%", early/1024, late/1024)
	}
}
