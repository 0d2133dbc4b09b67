package autoscale

import (
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/workload"
)

func boutique(seed int64) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine(seed)
	return eng, cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
}

func TestHPAScalesUpUnderLoad(t *testing.T) {
	eng, cl := boutique(1)
	h := NewHPA(cl, 0.5)
	h.Start()
	g := workload.NewOpenLoop(cl, workload.ConstRate(150))
	g.Start()
	eng.RunUntil(300)
	g.Stop()
	h.Stop()
	eng.Run()
	if got := cl.TotalInstances(); got <= len(cl.App.Services) {
		t.Errorf("HPA never scaled up: %d instances", got)
	}
	// Frontend handles 150 rps at ~3.2 cpu-ms → needs ≥ 480/250·(1/0.5) ≈ 4.
	if r := cl.Deployment("frontend").Replicas(); r < 3 {
		t.Errorf("frontend replicas = %d, want ≥ 3", r)
	}
}

func TestHPALowerThresholdMoreInstances(t *testing.T) {
	run := func(th float64) int {
		eng, cl := boutique(2)
		h := NewHPA(cl, th)
		h.Start()
		g := workload.NewOpenLoop(cl, workload.ConstRate(120))
		g.Start()
		eng.RunUntil(300)
		g.Stop()
		h.Stop()
		eng.Run()
		return cl.TotalInstances()
	}
	lo, hi := run(0.1), run(0.5)
	if lo <= hi {
		t.Errorf("threshold 10%% gave %d instances, 50%% gave %d; want 10%% ≫ 50%% (Fig 2)", lo, hi)
	}
}

func TestHPAScaleDownStabilization(t *testing.T) {
	eng, cl := boutique(3)
	h := NewHPA(cl, 0.5)
	h.Start()
	g := workload.NewOpenLoop(cl, workload.StepRate(150, 5, 400))
	g.Start()
	// One sync after the 150→5 rps drop: utilization has collapsed, so
	// without stabilization desired replicas would be near the minimum.
	eng.RunUntil(430)
	held := cl.TotalInstances()
	minPossible := len(cl.App.Services)
	if held < 2*minPossible {
		t.Fatalf("only %d instances held right after drop; cannot observe stabilization", held)
	}
	// Inside the 300 s stabilization window the count must hold.
	eng.RunUntil(430 + 200)
	if after := cl.TotalInstances(); after < held {
		t.Errorf("scale-down inside stabilization window: %d → %d", held, after)
	}
	// Well past the window, replicas fall toward the minimum (the slow
	// scale-down of Fig 20).
	eng.RunUntil(1100)
	late := cl.TotalInstances()
	g.Stop()
	h.Stop()
	eng.Run()
	if late >= held {
		t.Errorf("HPA never scaled down after stabilization: held %d, late %d", held, late)
	}
}

func TestHPAToleranceSuppressesChurn(t *testing.T) {
	eng, cl := boutique(4)
	h := NewHPA(cl, 0.5)
	// No load at all: utilization 0, ratio 0 → scale to min (1), stay.
	h.Start()
	eng.RunUntil(200)
	h.Stop()
	eng.Run()
	if got := cl.TotalInstances(); got != len(cl.App.Services) {
		t.Errorf("idle HPA produced %d instances, want %d", got, len(cl.App.Services))
	}
}

func TestFIRMLikeScalesUpOnTailRatio(t *testing.T) {
	eng, cl := boutique(5)
	f := NewFIRMLike(cl)
	f.Start()
	// Overload: single instances saturate, p95/p50 ratio explodes.
	g := workload.NewOpenLoop(cl, workload.ConstRate(200))
	g.Start()
	eng.RunUntil(300)
	g.Stop()
	f.Stop()
	eng.Run()
	if got := totalQuota(cl); got <= float64(len(cl.App.Services))*250 {
		t.Errorf("FIRM-like never scaled up: total quota %v", got)
	}
}

func TestFIRMLikeScalesDownWhenIdle(t *testing.T) {
	eng, cl := boutique(6)
	cl.Deployment("frontend").SetQuota(2000)
	eng.RunUntil(60)
	f := NewFIRMLike(cl)
	f.Start()
	// Light load keeps utilization below firmScaleDownUtil.
	g := workload.NewOpenLoop(cl, workload.ConstRate(2))
	g.Start()
	eng.RunUntil(400)
	g.Stop()
	f.Stop()
	eng.Run()
	if q := cl.Deployment("frontend").Quota(); q >= 2000 {
		t.Errorf("FIRM-like never reclaimed idle quota: %v", q)
	}
}

func TestProvisionProactive(t *testing.T) {
	eng, cl := boutique(7)
	quotas := ProvisionProactive(cl, 300, 0.6)
	if len(quotas) != len(cl.App.Services) {
		t.Fatalf("provisioned %d services", len(quotas))
	}
	// All deployments scale in the same control action.
	eng.RunUntil(120)
	for name, q := range quotas {
		if q <= 0 {
			t.Errorf("%s: non-positive quota", name)
		}
		if cl.Deployment(name).Quota() != q {
			t.Errorf("%s: quota not applied", name)
		}
	}
	// Demand-based lower bound holds.
	if total := totalQuota(cl); total < cpuDemand(cl.App, 300) {
		t.Errorf("proactive quota %v below raw CPU demand %v", total, cpuDemand(cl.App, 300))
	}
}

func TestCPUDemandScalesLinearly(t *testing.T) {
	a := app.OnlineBoutique()
	d1, d2 := cpuDemand(a, 100), cpuDemand(a, 200)
	if d2 < d1*1.99 || d2 > d1*2.01 {
		t.Errorf("CPU demand not linear: %v vs %v", d1, d2)
	}
}

// cpuDemand returns the total CPU demand (millicores) of an application at a
// total front-end rate, the lower bound any allocator must exceed.
func cpuDemand(a *app.App, totalRate float64) float64 {
	rates := a.PerServiceRate(a.MixRates(totalRate))
	sum := 0.0
	for _, svc := range a.Services {
		sum += rates[svc.Name] * svc.WorkMS
	}
	return sum
}

// totalQuota returns the sum of cl's desired quotas in millicores.
func totalQuota(cl *cluster.Cluster) float64 {
	q := 0.0
	for _, v := range cl.Quotas() {
		q += v
	}
	return q
}
