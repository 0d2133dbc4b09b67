package fleet

import (
	"math/rand"
	"runtime"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/workload"
)

// steadyConfig is a fleet of one tenant of app a in its steady state:
// capacity enough that the SLO holds whatever the untrained model says, and
// no breaker to second-guess it, so after the first solve hysteresis keeps
// the configuration.
func steadyConfig(a *app.App) Config {
	cfg := testConfig(1, 1)
	n := len(a.Services)
	cfg.App = a
	cfg.Model = gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(42)))
	cfg.Bounds = core.Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := range cfg.Bounds.Lo {
		cfg.Bounds.Lo[i], cfg.Bounds.Hi[i] = 1000, 1500
	}
	cfg.Tenants[0].Rate = workload.ConstRate(100) // as the first tenant of the benchmark's fleet_steady
	ccfg := core.DefaultControllerConfig(cfg.SLO)
	ccfg.BreakerBand = 0
	cfg.Controller = &ccfg
	return cfg
}

// A tenant's memory does not depend on how long it has run: its telemetry
// windows hold one look-back, its trace histories a run of slots per change
// of visit vector, and the request path recycles everything else. The live
// heap after 2000 decisions is the live heap after 500, the audit buffer
// aside (it is the tenant's output and grows by one record per decision) —
// and it is small: the ceilings are what each tenant measures (608–614 and
// 641–647 KB) plus ~10%, so that a per-tenant structure of ring size — trace
// spans were 5.9 MB on OnlineBoutique, unread windows 0.9 MB, the request
// records' span arrays and the index rings 0.11–0.26 MB — cannot come back
// unnoticed.
func TestTenantHeapIsFlatInRunLength(t *testing.T) {
	for _, tc := range []struct {
		name      string
		app       *app.App
		ceilingKB float64 // live heap less model and audit blocks
	}{
		{"chain-4", app.SyntheticChain(4), 680},
		{"online-boutique", app.OnlineBoutique(), 710}, // the repo benchmark's tenant
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := steadyConfig(tc.app)
			live := func() float64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC() // twice: what earlier tests left in sync.Pools survives one collection
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}
			// The baseline: the model is built, the fleet and its tenant are not.
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
				return live() - without - float64(len(tn.audit.blocks)*auditBlockLen)
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

// Nothing in a default tenant reads per-service arrival rates or self latency
// (the anomaly mitigator and FIRM-like do; a tenant runs neither), so their
// windows count what they are given and hold none of it, while the signals
// the controller and the tick read hold about one look-back each.
func TestTenantRetainsOnlySignalsItReads(t *testing.T) {
	f, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	for i := 0; i < 100; i++ {
		f.Round()
	}
	tn := f.Tenants()[0]
	if tn.Degraded() {
		t.Fatalf("tenant degraded: %v", tn.PanicValue())
	}
	cl := tn.Cluster
	if at, ok := cl.LastDeploymentTelemetryAt(); !ok || cl.Eng.Now()-at > 1 {
		t.Errorf("LastDeploymentTelemetryAt = %v %v at t=%v, want a fresh timestamp", at, ok, cl.Eng.Now())
	}
	if n := cl.Retained(cluster.ServiceRates | cluster.SelfLatency); n != 0 {
		t.Errorf("%d per-service arrival and self-latency observations retained, want 0", n)
	}
	for _, sig := range []cluster.Signal{cluster.APIRates, cluster.E2ELatency, cluster.CPU} {
		if cl.Retained(sig) == 0 {
			t.Errorf("signal %#b, which the tenant reads, retains nothing", sig)
		}
	}
}

// What a warmed tenant allocates per decision while hysteresis holds: the
// simulator's requests, telemetry, the controller's tick and the audit
// record. It measures 0.57 KB on OnlineBoutique (Go 1.24, amd64) and the
// ceiling is ~1.5× that.
const steadyDecisionCeilingKB = 0.85

func TestSteadyDecisionAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	f, err := New(steadyConfig(app.OnlineBoutique()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	tn := f.Tenants()[0]
	for tn.Ticks() < 200 {
		f.Round()
	}
	solves := tn.Ctl.Solves()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const decisions = 1000
	for i := 0; i < decisions; i++ {
		f.Round()
	}
	tn.AuditDigest() // flush the last records into the log
	runtime.ReadMemStats(&after)
	if tn.Degraded() || tn.Ctl.Solves() != solves {
		t.Fatalf("tenant left its steady state (degraded %v, %d solves during the run)", tn.Degraded(), tn.Ctl.Solves()-solves)
	}
	perKB := float64(after.TotalAlloc-before.TotalAlloc) / decisions / 1024
	t.Logf("%.2f KB per decision", perKB)
	if perKB > steadyDecisionCeilingKB {
		t.Errorf("%.2f KB allocated per steady decision, want ≤ %.2f KB", perKB, steadyDecisionCeilingKB)
	}
}
