package queueing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/workload"
)

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: P(wait) = ρ.
	if got := erlangC(1, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ErlangC(1, 0.5) = %v, want 0.5", got)
	}
	// Classic tabulated value: c=2, a=1 → erlangC = 1/3.
	if got := erlangC(2, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ErlangC(2, 1) = %v, want 1/3", got)
	}
	if got := erlangC(4, 4.5); got != 1 {
		t.Errorf("saturated ErlangC = %v, want 1", got)
	}
	if got := erlangC(3, 0); got != 0 {
		t.Errorf("zero-load ErlangC = %v, want 0", got)
	}
}

// Property: erlangC ∈ [0,1], increasing in load, decreasing in servers.
func TestErlangCProperty(t *testing.T) {
	f := func(cRaw uint8, aRaw uint16) bool {
		c := int(cRaw%20) + 1
		a := float64(aRaw) / float64(math.MaxUint16) * float64(c) * 0.99
		p := erlangC(c, a)
		if p < 0 || p > 1 {
			return false
		}
		if a > 0.01 && erlangC(c, a*0.5) > p+1e-12 {
			return false
		}
		return erlangC(c+1, a) <= p+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// The mean of the wait distribution WaitQuantile describes is M/M/1's
// E[Wq] = ρ/(1-ρ)·E[S]: ρ=0.8, S=0.01 → 0.04, the integral of the quantile
// function over (0, 1).
func TestMMcMeanWaitMM1(t *testing.T) {
	m := mmc{Lambda: 80, Service: 0.01, C: 1}
	const n = 1 << 20
	mean := 0.0
	for i := 0; i < n; i++ {
		mean += m.WaitQuantile((float64(i) + 0.5) / n)
	}
	if mean /= n; math.Abs(mean-0.04) > 1e-5 {
		t.Errorf("mean of WaitQuantile = %v, want 0.04", mean)
	}
}

func TestWaitQuantileMonotone(t *testing.T) {
	m := mmc{Lambda: 80, Service: 0.01, C: 1}
	prev := -1.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		v := m.WaitQuantile(q)
		if v < prev {
			t.Errorf("WaitQuantile not monotone at %v", q)
		}
		prev = v
	}
	if m.WaitQuantile(0.1) != 0 {
		t.Error("low quantile of wait should be 0 (arrival served immediately)")
	}
}

func TestProbit(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.975, 1.959964}, {0.99, 2.326348}, {0.01, -2.326348},
	}
	for _, c := range cases {
		if got := probit(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("probit(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLognormQuantile(t *testing.T) {
	// Median of lognormal = exp(mu) = mean/sqrt(1+cv²).
	mean, cv := 10.0, 1.0
	want := mean / math.Sqrt(1+cv*cv)
	if got := lognormQuantile(mean, cv, 0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("median = %v, want %v", got, want)
	}
	if got := lognormQuantile(mean, 0, 0.99); got != mean {
		t.Errorf("cv=0 quantile = %v, want mean", got)
	}
	if lognormQuantile(mean, cv, 0.99) <= lognormQuantile(mean, cv, 0.5) {
		t.Error("p99 should exceed median")
	}
}

// Latency vs quota is monotone nonincreasing under the round-up
// realization (Eq. 7): "the monotonic relationship between each
// microservice's latency and CPU resource" (§3.5) is what makes GRAF's
// gradient-descent solver find global optima.
func TestServiceQuantileMonotoneInQuota(t *testing.T) {
	svc := app.Service{Name: "s", WorkMS: 5, CV: 0.8, BaseMS: 2}
	sz := DefaultSizing()
	for _, lambda := range []float64{5, 30, 80} {
		prev := math.Inf(1)
		for quota := 50.0; quota <= 3000; quota += 25 {
			v := ServiceQuantile(svc, sz, quota, lambda, 0.99)
			if v > prev+1e-9 {
				t.Errorf("λ=%v: latency rose from %v to %v at quota %v", lambda, prev, v, quota)
			}
			prev = v
		}
	}
	hi := ServiceQuantile(svc, sz, 3000, 30, 0.99)
	lo := ServiceQuantile(svc, sz, 300, 30, 0.99)
	if hi >= lo {
		t.Errorf("latency at 3000mc (%v) should be well below 300mc (%v)", hi, lo)
	}
}

func TestE2EQuantileStructure(t *testing.T) {
	a := app.Bookinfo()
	sz := DefaultSizing()
	quotas := map[string]float64{"productpage": 1000, "details": 1000, "reviews": 1000, "ratings": 1000}
	rates := map[string]float64{"productpage": 20, "details": 20, "reviews": 20, "ratings": 20}
	e2e := e2eQuantile(a, "productpage", sz, quotas, rates, 0.99)
	pp := ServiceQuantile(a.Services[a.ServiceIndex("productpage")], sz, 1000, 20, 0.99)
	det := ServiceQuantile(a.Services[a.ServiceIndex("details")], sz, 1000, 20, 0.99)
	rev := ServiceQuantile(a.Services[a.ServiceIndex("reviews")], sz, 1000, 20, 0.99)
	rat := ServiceQuantile(a.Services[a.ServiceIndex("ratings")], sz, 1000, 20, 0.99)
	want := pp + math.Max(det, rev+rat)
	if math.Abs(e2e-want) > 1e-12 {
		t.Errorf("E2E = %v, want %v (sum/max composition)", e2e, want)
	}
	// §2.2: shrinking details' quota doesn't change e2e while it stays
	// under the reviews branch.
	quotas["details"] = 400
	e2e2 := e2eQuantile(a, "productpage", sz, quotas, rates, 0.99)
	if math.Abs(e2e2-e2e) > 1e-9 {
		det2 := ServiceQuantile(a.Services[a.ServiceIndex("details")], sz, 400, 20, 0.99)
		if det2 < rev+rat {
			t.Errorf("e2e changed (%v→%v) though details stayed off the critical path", e2e, e2e2)
		}
	}
}

func TestWorstAPIQuantile(t *testing.T) {
	a := app.OnlineBoutique()
	sz := DefaultSizing()
	quotas := map[string]float64{}
	for _, s := range a.ServiceNames() {
		quotas[s] = 1000
	}
	rates := a.PerServiceRate(a.MixRates(50))
	worst := WorstAPIQuantile(a, sz, quotas, rates, 0.99)
	cart := e2eQuantile(a, "cart", sz, quotas, rates, 0.99)
	if worst < cart {
		t.Errorf("worst (%v) < cart (%v)", worst, cart)
	}
	// Cart page touches every service, so it should be the binding API.
	if worst != cart {
		t.Logf("binding API is not cart: worst=%v cart=%v (acceptable)", worst, cart)
	}
}

// Cross-validation: at moderate load the DES median self-latency should be
// within a factor-band of the analytic median.
func TestDESMatchesAnalyticMedian(t *testing.T) {
	a := app.RobotShop()
	eng := sim.NewEngine(17)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	cl.ApplyQuotas(map[string]float64{"web": 1000, "catalogue": 1000})
	eng.RunUntil(60)
	g := workload.NewOpenLoop(cl, workload.ConstRate(40))
	g.Start()
	eng.RunUntil(180)
	g.Stop()
	eng.Run()

	sz := DefaultSizing()
	for _, name := range a.ServiceNames() {
		svc := a.Services[a.ServiceIndex(name)]
		analytic := ServiceQuantile(svc, sz, 1000, 40, 0.5)
		des := cl.Deployment(name).SelfLatencyQuantile(0.5, 120)
		if des <= 0 {
			t.Fatalf("%s: no DES samples", name)
		}
		ratio := des / analytic
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: DES median %.4fs vs analytic %.4fs (ratio %.2f)", name, des, analytic, ratio)
		}
	}
}
