package core

import (
	"math"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/workload"
)

func TestRefineIntegerRemovesRoundingSlack(t *testing.T) {
	h := hyperbola{a: []float64{20, 5, 45}}
	load := []float64{1, 1, 1}
	slo := 0.150
	lo := []float64{50, 50, 50}
	hi := []float64{5000, 5000, 5000}
	sol := Solve(h, load, slo, lo, hi, DefaultSolverConfig())
	const unit = 250.0
	ref := RefineInteger(h, load, slo, sol, lo, unit)

	// Unit-aligned.
	for i, q := range ref.Quotas {
		if r := math.Mod(q, unit); r > 1e-9 && unit-r > 1e-9 {
			t.Errorf("quota[%d] = %v not unit-aligned", i, q)
		}
	}
	// Still feasible under the model.
	if ref.Predicted > slo+1e-9 {
		t.Errorf("refined predicted %v violates SLO %v", ref.Predicted, slo)
	}
	// No worse than naive per-service round-up.
	naive := 0.0
	for _, q := range sol.Quotas {
		naive += math.Ceil(q/unit) * unit
	}
	if ref.TotalQuota > naive+1e-9 {
		t.Errorf("refined total %v worse than naive round-up %v", ref.TotalQuota, naive)
	}
	// Locally minimal: removing any single unit violates.
	for i := range ref.Quotas {
		if ref.Quotas[i]-unit < lo[i] || ref.Quotas[i]-unit < unit {
			continue
		}
		q := append([]float64(nil), ref.Quotas...)
		q[i] -= unit
		if h.Predict(load, q) <= slo {
			t.Errorf("refined solution not locally minimal: can drop a unit from %d", i)
		}
	}
}

func TestRefineIntegerRespectsLowerBounds(t *testing.T) {
	h := hyperbola{a: []float64{1, 1}}
	load := []float64{1, 1}
	lo := []float64{600, 600}
	sol := Solution{Quotas: []float64{700, 700}}
	ref := RefineInteger(h, load, 100 /*loose*/, sol, lo, 250)
	for i, q := range ref.Quotas {
		if q < lo[i] {
			t.Errorf("quota[%d] = %v below lower bound %v", i, q, lo[i])
		}
	}
}

func TestContentionInjectionSlowsService(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	cl.InjectContention("catalogue", 4, 30)
	var during, after float64
	for i := 0; i < 20; i++ {
		eng.At(float64(i), func() { cl.Submit("catalogue", func(l float64) { during += l / 20 }) })
	}
	eng.RunUntil(40) // injection expires at t=30
	for i := 0; i < 20; i++ {
		eng.At(40+float64(i), func() { cl.Submit("catalogue", func(l float64) { after += l / 20 }) })
	}
	eng.Run()
	if during <= after*1.5 {
		t.Errorf("mean latency under 4× contention (%v) not well above normal (%v)", during, after)
	}
}

func TestAnomalyMitigatorBoostsAndReverts(t *testing.T) {
	eng := sim.NewEngine(2)
	cl := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	cl.ApplyQuotas(map[string]float64{"web": 500, "catalogue": 750})
	eng.RunUntil(30)
	g := workload.NewOpenLoop(cl, workload.ConstRate(30))
	g.Start()
	mit := NewAnomalyMitigator(cl)
	mit.Start()
	// Build a clean baseline first.
	eng.RunUntil(200)
	preQuota := cl.Deployment("catalogue").Quota()
	// Inject a 3× contention for 60 s.
	cl.InjectContention("catalogue", 3, 60)
	peak := preQuota
	for tm := 205.0; tm <= 265; tm += 5 {
		eng.RunUntil(tm)
		if q := cl.Deployment("catalogue").Quota(); q > peak {
			peak = q
		}
	}
	if mit.Fired() == 0 {
		t.Fatal("mitigator never fired during contention")
	}
	if peak <= preQuota {
		t.Errorf("quota never boosted above %v during contention", preQuota)
	}
	// After the anomaly clears, the borrowed quota is returned.
	eng.RunUntil(600)
	g.Stop()
	mit.Stop()
	eng.Run()
	if got := mit.extra["catalogue"]; got != 0 {
		t.Errorf("extra quota not returned: %v", got)
	}
}

func TestAnomalyMitigatorIgnoresWorkloadChanges(t *testing.T) {
	// A latency rise caused by a workload surge must NOT be attributed to
	// contention (GRAF's own controller handles workload).
	eng := sim.NewEngine(3)
	cl := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	cl.ApplyQuotas(map[string]float64{"web": 500, "catalogue": 500})
	eng.RunUntil(30)
	g := workload.NewOpenLoop(cl, workload.StepRate(10, 60, 230))
	g.Start()
	mit := NewAnomalyMitigator(cl)
	mit.Start()
	eng.RunUntil(260) // shortly after the surge: rate clearly shifted
	firedAtSurge := mit.Fired()
	g.Stop()
	mit.Stop()
	eng.Run()
	if firedAtSurge > 1 {
		t.Errorf("mitigator fired %d times on a workload surge", firedAtSurge)
	}
}
