package core

import (
	"bytes"
	"testing"
	"time"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// TestPartialConfigAdvancesTime: a ControllerConfig that sets only the SLO
// and the solver is a legal literal for any caller of NewController. Its
// loop must still decide once per interval and let simulated time pass; a
// zero interval would re-arm the ticker at one instant forever, and
// RunUntil would never return.
func TestPartialConfigAdvancesTime(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
	n := len(cl.App.Services)
	h := hyperbola{a: make([]float64, n), c: 0.01}
	b := Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := range h.a {
		h.a[i], b.Lo[i], b.Hi[i] = 2, 100, 6000
	}
	var buf bytes.Buffer
	tel := obs.New(obs.Options{AuditW: &buf})
	ctl := NewController(cl, h, NewAnalyzer(cl.App), b, ControllerConfig{SLO: 0.25, Solver: DefaultSolverConfig()})
	ctl.Obs = obs.NewControllerObs(tel)
	solves := 0
	ctl.OnDecision = func(float64, float64, Solution) {
		// A runaway loop solves at one instant forever: stop it, so the
		// failure is reported instead of spinning the test binary.
		if solves++; solves > 100 {
			ctl.Stop()
		}
	}
	gen := workload.NewOpenLoop(cl, workload.ConstRate(100))
	gen.Start()
	ctl.Start()
	done := make(chan struct{})
	go func() {
		eng.RunUntil(30)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("RunUntil(30) did not return within 20 s of wall time")
	}
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if err := tel.Flight.Flush(); err != nil {
		t.Fatal(err)
	}
	log, err := obs.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decisions := 0
	for _, n := range kinds(log) {
		decisions += n
	}
	if decisions != 6 || eng.Now() < 30 {
		t.Errorf("%d decisions (kinds %v) by t=%v, want 6 by t=30", decisions, kinds(log), eng.Now())
	}
}
