package workload

import (
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/trace"
)

func boutique(seed int64) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine(seed)
	c := cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
	// Generous capacity so generators are not the thing under test.
	for _, s := range c.App.ServiceNames() {
		c.Deployment(s).SetQuota(4000)
	}
	eng.RunUntil(120)
	return eng, c
}

func TestOpenLoopRate(t *testing.T) {
	eng, c := boutique(1)
	g := NewOpenLoop(c, ConstRate(50))
	g.Start()
	start := eng.Now()
	eng.RunUntil(start + 60)
	g.Stop()
	eng.Run()
	got := c.Deployment("frontend").ArrivalRateAt(start+60, 60)
	if got < 40 || got > 60 {
		t.Errorf("open-loop offered %.1f rps, want ≈50", got)
	}
}

func TestOpenLoopStepSurge(t *testing.T) {
	eng, c := boutique(2)
	start := eng.Now()
	g := NewOpenLoop(c, StepRate(10, 100, start+30))
	g.Start()
	eng.RunUntil(start + 60)
	g.Stop()
	eng.Run()
	before := c.Deployment("frontend").ArrivalRateAt(start+30, 30)
	after := c.Deployment("frontend").ArrivalRateAt(start+60, 25)
	if before < 5 || before > 16 {
		t.Errorf("pre-surge rate %.1f, want ≈10", before)
	}
	if after < 75 || after > 125 {
		t.Errorf("post-surge rate %.1f, want ≈100", after)
	}
}

func TestOpenLoopAPIMix(t *testing.T) {
	eng, c := boutique(3)
	traces := map[string]int{}
	c.OnTrace(func(tr *trace.Trace) { traces[tr.API]++ })
	g := NewOpenLoop(c, ConstRate(100))
	g.Start()
	start := eng.Now()
	eng.RunUntil(start + 60)
	g.Stop()
	eng.Run()
	nCart := traces["cart"]
	nHome := traces["home"]
	if nCart == 0 || nHome == 0 {
		t.Fatalf("mix not exercised: cart=%d home=%d", nCart, nHome)
	}
	// cart Mix 0.4 vs home 0.2 → roughly 2:1.
	ratio := float64(nCart) / float64(nHome)
	if ratio < 1.3 || ratio > 3.0 {
		t.Errorf("cart:home ratio = %.2f, want ≈2", ratio)
	}
}

func TestOpenLoopFixedAPI(t *testing.T) {
	eng, c := boutique(4)
	traces := map[string]int{}
	c.OnTrace(func(tr *trace.Trace) { traces[tr.API]++ })
	g := NewOpenLoop(c, ConstRate(50))
	g.API = "cart"
	g.Start()
	start := eng.Now()
	eng.RunUntil(start + 20)
	g.Stop()
	eng.Run()
	if n := traces["home"]; n != 0 {
		t.Errorf("fixed-API generator produced %d home traces", n)
	}
	if n := traces["cart"]; n == 0 {
		t.Error("fixed-API generator produced no cart traces")
	}
}

func TestClosedLoopThroughputScalesWithUsers(t *testing.T) {
	run := func(users int) float64 {
		eng, c := boutique(5)
		g := NewClosedLoop(c, ConstUsers(users))
		g.Start()
		start := eng.Now()
		eng.RunUntil(start + 120)
		g.Stop()
		eng.Run()
		return c.Deployment("frontend").ArrivalRateAt(start+120, 60)
	}
	r100, r200 := run(100), run(200)
	if r100 <= 0 {
		t.Fatal("closed loop generated no traffic")
	}
	ratio := r200 / r100
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("200-user/100-user throughput ratio = %.2f, want ≈2", ratio)
	}
	// Closed loop with ~2.5 s mean think + small latency → ≈ users/2.5 rps.
	if r100 < 25 || r100 > 55 {
		t.Errorf("100 users offered %.1f rps, want ≈40", r100)
	}
}

func TestClosedLoopUserStep(t *testing.T) {
	eng, c := boutique(6)
	start := eng.Now()
	g := NewClosedLoop(c, StepUsers(20, 80, start+60))
	g.Start()
	eng.RunUntil(start + 59)
	if a := g.active; a < 15 || a > 20 {
		t.Errorf("active users before step = %d, want ≈20", a)
	}
	eng.RunUntil(start + 90)
	if a := g.active; a < 60 || a > 80 {
		t.Errorf("active users after step = %d, want ≈80", a)
	}
	g.Stop()
	eng.Run()
}

func TestTraceRate(t *testing.T) {
	r := TraceRate([]float64{600, 1200})
	if got := r(30); got != 10 {
		t.Errorf("minute 0 rate = %v, want 10", got)
	}
	if got := r(90); got != 20 {
		t.Errorf("minute 1 rate = %v, want 20", got)
	}
	if got := r(500); got != 0 {
		t.Errorf("past-end rate = %v, want 0", got)
	}
}

func TestTraceUsers(t *testing.T) {
	u := TraceUsers([]float64{1000, 2000}, 10)
	if got := u(0); got != 100 {
		t.Errorf("minute 0 users = %d, want 100", got)
	}
	if got := u(61); got != 200 {
		t.Errorf("minute 1 users = %d, want 200", got)
	}
	if got := u(10000); got != 0 {
		t.Errorf("past-end users = %d, want 0", got)
	}
}
