package fleet

import (
	"math/rand"
	"runtime"
	"testing"

	"graf/internal/app"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/obs"
	"graf/internal/workload"
)

// A tenant's memory does not depend on how long it has run: its telemetry
// windows hold one look-back, its trace rings four bytes per retained trace,
// and the request path recycles everything else. The live heap after 2000
// decisions is the live heap after 500, the audit buffer aside (it is the
// tenant's output and grows by one record per decision) — and it is small:
// the ceilings are what each tenant measured when the trace rings stopped
// keeping spans (1100 and 1573 KB, half of it exact-quantile telemetry
// windows), plus 15%, so that a per-tenant structure of ring size — the spans
// were 5.9 MB on OnlineBoutique — cannot come back unnoticed.
func TestTenantHeapIsFlatInRunLength(t *testing.T) {
	for _, tc := range []struct {
		name      string
		app       *app.App
		ceilingKB float64 // live heap less model and audit buffer
	}{
		{"chain-4", app.SyntheticChain(4), 1265},
		{"online-boutique", app.OnlineBoutique(), 1810}, // the repo benchmark's tenant
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A tenant in its steady state: capacity enough that the SLO holds
			// whatever the untrained model says, and no breaker to second-guess
			// it, so after the first solve hysteresis keeps the configuration.
			cfg := testConfig(1, 1, 1)
			n := len(tc.app.Services)
			cfg.App = tc.app
			cfg.Model = gnn.New(gnn.DefaultConfig(n, tc.app.Parents()), rand.New(rand.NewSource(42)))
			cfg.Bounds = core.Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
			for i := range cfg.Bounds.Lo {
				cfg.Bounds.Lo[i], cfg.Bounds.Hi[i] = 1000, 1500
			}
			cfg.Tenants[0].Rate = workload.ConstRate(100) // as the first tenant of the benchmark's fleet_steady
			ccfg := core.DefaultControllerConfig(cfg.SLO)
			ccfg.BreakerBand = 0
			cfg.Controller = &ccfg

			live := func() float64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}
			// The baseline: the model is built, the fleet and its tenant are
			// not, and the tenant of whichever test ran last is let go (the
			// process-wide expvar keeps the newest Telemetry, and so all of
			// whatever its gauges read, reachable).
			obs.New(obs.Options{})
			without := live()
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tn := f.Tenants()[0]
			liveAfter := func(decisions int) float64 {
				for tn.Ticks() < decisions {
					f.Round()
				}
				if tn.Degraded() {
					t.Fatalf("tenant degraded at tick %d: %v", tn.Ticks(), tn.PanicValue())
				}
				return live() - without - float64(tn.audit.Cap())
			}
			early, late := liveAfter(500), liveAfter(2000)
			t.Logf("live heap less model and audit: %.0f KB after 500 decisions, %.0f KB after 2000 (%d requests, %d solves, %d boosts)",
				early/1024, late/1024, tn.Cluster.E2EWindow().Len(), tn.Ctl.Solves(), tn.Ctl.Boosts())
			if late > 1.05*early {
				t.Errorf("live heap grew from %.0f KB at decision 500 to %.0f KB at decision 2000, want within 5%%", early/1024, late/1024)
			}
			if late > tc.ceilingKB*1024 {
				t.Errorf("%.0f KB live per tenant less model and audit, want ≤ %.0f KB", late/1024, tc.ceilingKB)
			}
			f.Stop()
		})
	}
}
