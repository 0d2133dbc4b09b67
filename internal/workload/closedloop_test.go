package workload

import (
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
)

func TestClosedLoopScalesDownUsers(t *testing.T) {
	eng := sim.NewEngine(21)
	c := cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
	for _, s := range c.App.ServiceNames() {
		c.Deployment(s).SetQuota(4000)
	}
	eng.RunUntil(120)
	start := eng.Now()
	g := NewClosedLoop(c, StepUsers(100, 10, start+60))
	g.Start()
	eng.RunUntil(start + 55)
	if a := g.active; a < 80 {
		t.Fatalf("ramped to %d users, want ≈100", a)
	}
	// After the step down, threads retire as they complete think cycles.
	eng.RunUntil(start + 90)
	if a := g.active; a > 20 {
		t.Errorf("active users %d well above target 10 after step-down", a)
	}
	g.Stop()
	eng.Run()
	if g.active != 0 {
		t.Errorf("Stop left %d active users", g.active)
	}
}

func TestClosedLoopStopDrains(t *testing.T) {
	eng := sim.NewEngine(22)
	c := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	g := NewClosedLoop(c, ConstUsers(20))
	g.Start()
	eng.RunUntil(30)
	g.Stop()
	eng.Run()
	if c.InFlight() != 0 {
		t.Errorf("%d requests still in flight after Stop+drain", c.InFlight())
	}
}

func TestOpenLoopZeroRateResumes(t *testing.T) {
	eng := sim.NewEngine(23)
	c := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	// Rate 0 for the first 30 s, then 20 rps: the generator must idle
	// through the zero region and resume.
	g := NewOpenLoop(c, StepRate(0, 20, 30))
	g.Start()
	eng.RunUntil(29)
	if got := c.Deployment("web").ArrivalRateAt(29, 29); got != 0 {
		t.Errorf("arrivals during zero-rate region: %v", got)
	}
	eng.RunUntil(90)
	g.Stop()
	eng.Run()
	if got := c.Deployment("web").ArrivalRateAt(90, 30); got < 10 {
		t.Errorf("generator did not resume after zero-rate region: %v rps", got)
	}
}
