package core

import (
	"math"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/workload"
)

// flakyModel wraps a LatencyModel and can be switched to emit NaN, the
// signature of a corrupted or diverged model.
type flakyModel struct {
	inner  LatencyModel
	broken *bool
}

func (f flakyModel) Predict(load, quota []float64) float64 {
	if *f.broken {
		return math.NaN()
	}
	return f.inner.Predict(load, quota)
}

func (f flakyModel) PredictGrad(load, quota []float64) (float64, []float64) {
	if *f.broken {
		return math.NaN(), make([]float64, len(quota))
	}
	return f.inner.PredictGrad(load, quota)
}

// degradedRig wires a RobotShop cluster + controller for the degraded-mode
// tests. The cluster is pre-provisioned (3 ready replicas per service) so
// the load the tests generate does not melt an un-managed default cluster
// into a backlog before the controller even attaches; the engine is at
// t=30 on return.
func degradedRig(t *testing.T, seed int64, cfg ControllerConfig, m LatencyModel) (*sim.Engine, *cluster.Cluster, *Controller) {
	t.Helper()
	a := app.RobotShop()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetReplicas(3)
	}
	eng.RunUntil(30) // replicas ready
	an := NewAnalyzer(a)
	b := Bounds{Lo: []float64{100, 100}, Hi: []float64{4000, 4000}}
	return eng, cl, NewController(cl, m, an, b, cfg)
}

func TestControllerStaleHoldOnTelemetryBlackhole(t *testing.T) {
	cfg := DefaultControllerConfig(0.25)
	cfg.ViolationBoost = 1 // isolate the stale-telemetry path
	h := hyperbola{a: []float64{2, 2}, c: 0.01}
	eng, cl, ctl := degradedRig(t, 21, cfg, h)

	var transitions []HealthState
	ctl.OnHealth = func(tm float64, from, to HealthState) { transitions = append(transitions, to) }
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(90) // steady state reached
	if ctl.Health() != healthy {
		t.Fatalf("health %v before fault, want Healthy", ctl.Health())
	}
	held := cl.TotalQuota()
	if held <= 0 {
		t.Fatal("no configuration applied before the fault")
	}

	// Black-hole the arrival signal for 30s while traffic keeps flowing.
	cl.SuppressFrontendTelemetry(30)
	eng.RunUntil(115)
	if ctl.Health() != degradedTelemetry {
		t.Errorf("health %v during blackhole, want DegradedTelemetry", ctl.Health())
	}
	if got := cl.TotalQuota(); got != held {
		t.Errorf("quota changed %v → %v during stale hold; want last-known-good held", held, got)
	}
	if ctl.Stats().StaleHolds == 0 {
		t.Error("no stale holds counted during a telemetry blackhole")
	}

	// Signal returns; the controller must recover to healthy.
	eng.RunUntil(180)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if ctl.Health() != healthy {
		t.Errorf("health %v after recovery, want Healthy", ctl.Health())
	}
	sawDegraded := false
	for _, s := range transitions {
		if s == degradedTelemetry {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Errorf("transitions %v never visited DegradedTelemetry", transitions)
	}
	if transitions[len(transitions)-1] != healthy {
		t.Errorf("final transition %v, want Healthy", transitions[len(transitions)-1])
	}
}

func TestControllerStaleHoldExpires(t *testing.T) {
	cfg := DefaultControllerConfig(0.25)
	cfg.ViolationBoost = 1
	cfg.StaleHoldMaxS = 15 // short: the collapse should be accepted as real
	h := hyperbola{a: []float64{2, 2}, c: 0.01}
	eng, cl, ctl := degradedRig(t, 22, cfg, h)
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(90)
	held := cl.TotalQuota()

	// Permanent heavy sampling: the observed rate collapses to 5% and
	// stays there. The hold must expire and the controller accept the
	// (apparently) collapsed workload rather than hold forever. A full
	// blackhole would not do here: a dead signal sits below minTotalRate,
	// where no decision — including scale-down — is ever made.
	cl.SetArrivalSampling(0.05)
	eng.RunUntil(200)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if got := cl.TotalQuota(); got >= held {
		t.Errorf("quota %v still ≥ held %v long after StaleHoldMaxS; hold never expired", got, held)
	}
}

func TestControllerBreakerFallbackAndClose(t *testing.T) {
	cfg := DefaultControllerConfig(0.25)
	cfg.ViolationBoost = 1
	cfg.Hysteresis = 0 // force a solve every interval so streaks accumulate
	broken := false
	m := flakyModel{inner: hyperbola{a: []float64{2, 2}, c: 0.01}, broken: &broken}
	eng, cl, ctl := degradedRig(t, 23, cfg, m)

	var transitions []HealthState
	ctl.OnHealth = func(tm float64, from, to HealthState) { transitions = append(transitions, to) }
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(60) // warm up: cold-start queueing would look like model error
	ctl.Start()
	eng.RunUntil(120)
	if ctl.Health() != healthy {
		t.Fatalf("health %v before fault, want Healthy", ctl.Health())
	}

	// Corrupt the model: every solve now returns NaN.
	eng.At(120, func() { broken = true })
	eng.RunUntil(160)
	if ctl.Health() != fallbackHeuristic {
		t.Errorf("health %v with NaN model, want FallbackHeuristic", ctl.Health())
	}
	st := ctl.Stats()
	if st.BreakerTrips == 0 || st.FallbackSolves == 0 {
		t.Errorf("breaker never engaged: %+v", st)
	}
	if q := cl.TotalQuota(); q <= 0 || math.IsNaN(q) {
		t.Errorf("heuristic fallback applied bogus total quota %v", q)
	}

	// Model heals: breakerClose healthy solves must close the breaker.
	eng.At(160, func() { broken = false })
	eng.RunUntil(220)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if ctl.Health() != healthy {
		t.Errorf("health %v after model healed, want Healthy", ctl.Health())
	}
	if ctl.Stats().BreakerCloses == 0 {
		t.Error("breaker never closed after the model healed")
	}
}

func TestControllerBoostCapBoundsCompounding(t *testing.T) {
	cfg := DefaultControllerConfig(0.0001) // SLO impossibly tight: boosts every step
	cfg.BoostCap = 2
	h := hyperbola{a: []float64{2, 2}, c: 0.01}
	eng, cl, ctl := degradedRig(t, 24, cfg, h)
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(400)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if ctl.Stats().Boosts < 2 {
		t.Fatalf("guardrail fired %d times; test needs repeated boosts", ctl.Stats().Boosts)
	}
	// Bounds.Hi = 4000 per service, cap 2× → no quota may exceed 8000.
	for name, q := range cl.Quotas() {
		if q > 2*4000+1e-9 {
			t.Errorf("%s quota %v exceeds BoostCap×Hi = 8000", name, q)
		}
	}
}

func TestControllerStepLimiter(t *testing.T) {
	cfg := DefaultControllerConfig(0.25)
	cfg.ViolationBoost = 1
	cfg.Hysteresis = 0
	cfg.MaxStepUp = 1.5
	cfg.MaxStepDown = 0.5
	h := hyperbola{a: []float64{2, 2}, c: 0.01}
	eng, cl, ctl := degradedRig(t, 25, cfg, h)

	var prev map[string]float64
	ctl.OnDecision = func(tm, total float64, sol Solution) {
		cur := cl.Quotas()
		if prev != nil {
			for k, v := range cur {
				if old := prev[k]; old > 0 {
					if v > old*1.5+1e-9 || v < old*0.5-1e-9 {
						t.Errorf("t=%.1f %s stepped %v → %v, outside [0.5×, 1.5×]", tm, k, old, v)
					}
				}
			}
		}
		prev = cur
	}
	ctl.Start()
	gen := workload.NewOpenLoop(cl, func(t float64) float64 {
		if t > 60 {
			return 200 // 5× surge: the limiter must smooth the response
		}
		return 40
	})
	gen.Start()
	eng.RunUntil(150)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if ctl.Stats().RateLimited == 0 {
		t.Error("step limiter never engaged across a 5× surge")
	}
}
