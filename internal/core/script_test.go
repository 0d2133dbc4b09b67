package core

import (
	"bytes"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// lyingModel wraps the hyperbola oracle and, while *on, under-predicts by
// three orders of magnitude — the dangerous direction: the solver believes
// any configuration meets the SLO while the measured tail says otherwise, so
// only the circuit breaker's measured-p99 check can catch it.
type lyingModel struct {
	inner hyperbola
	on    *bool
}

func (m lyingModel) Predict(load, quota []float64) float64 {
	p := m.inner.Predict(load, quota)
	if *m.on {
		p /= 1000
	}
	return p
}

func (m lyingModel) PredictGrad(load, quota []float64) (float64, []float64) {
	p, g := m.inner.PredictGrad(load, quota)
	if *m.on {
		p /= 1000
		for i := range g {
			g[i] /= 1000
		}
	}
	return p, g
}

// scenario is one scripted control-loop run on the hyperbola test model: a
// seeded cluster, a workload, and a script of timed faults, ladder walks and
// trust changes. The digest test and the fold property test are both lists
// of these.
type scenario struct {
	// robotShop runs the two-service application pre-provisioned with three
	// ready replicas per service (the degraded-mode rig) instead of
	// OnlineBoutique on a default cluster.
	robotShop bool
	seed      int64
	hi        float64 // per-service upper solver bound; 0 = 6000
	cfg       ControllerConfig
	rate      func(float64) float64
	until     float64
	script    func(r *scriptRig) // runs before the clock starts; schedules with r.eng.At
}

// scriptRig is what a scenario's script gets to act on.
type scriptRig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	ctl *Controller
	tel *obs.Telemetry
	lie *bool // switches the model into lying mode
	buf bytes.Buffer
}

// brownoutAt schedules a ladder transition the way the fleet performs one:
// the "brownout" record first, then SetBrownout.
func (r *scriptRig) brownoutAt(at float64, step int) {
	r.eng.At(at, func() {
		r.tel.Flight.Record(obs.Record{
			Type: "brownout", At: r.eng.Now(),
			Summary: map[string]float64{"to_step": float64(step)},
		})
		r.ctl.SetBrownout(step)
	})
}

// run executes the scenario to sc.until and returns the rig (with the flight
// log flushed into r.buf) and the controller's state at that instant.
func (sc scenario) run(t *testing.T) (*scriptRig, ControllerState) {
	t.Helper()
	a := app.OnlineBoutique()
	if sc.robotShop {
		a = app.RobotShop()
	}
	r := &scriptRig{eng: sim.NewEngine(sc.seed), lie: new(bool)}
	r.cl = cluster.New(r.eng, a, cluster.DefaultConfig())
	n := len(a.Services)
	h := hyperbola{a: make([]float64, n), c: 0.01}
	b := Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	hi := sc.hi
	if hi == 0 {
		hi = 6000
	}
	for i := range h.a {
		h.a[i], b.Lo[i], b.Hi[i] = 2, 100, hi
	}
	if sc.robotShop {
		for _, name := range a.ServiceNames() {
			r.cl.Deployment(name).SetReplicas(3)
		}
		r.eng.RunUntil(30) // replicas ready
	}
	r.tel = obs.New(obs.Options{AuditW: &r.buf})
	r.tel.Flight.Record(obs.Record{
		Type: "header", App: a.Name, SLO: sc.cfg.SLO,
		Services: a.ServiceNames(), Solver: SolverConfigMap(sc.cfg.Solver),
	})
	r.ctl = NewController(r.cl, lyingModel{inner: h, on: r.lie}, NewAnalyzer(a), b, sc.cfg)
	r.ctl.Obs = obs.NewControllerObs(r.tel)
	if sc.script != nil {
		sc.script(r)
	}
	gen := workload.NewOpenLoop(r.cl, sc.rate)
	gen.Start()
	r.ctl.Start()
	r.eng.RunUntil(sc.until)
	final := r.ctl.Snapshot()
	gen.Stop()
	r.ctl.Stop()
	r.eng.Run()
	if err := r.tel.Flight.Flush(); err != nil {
		t.Fatal(err)
	}
	return r, final
}

// kinds counts the decision records of a flight log by kind.
func kinds(log []obs.Record) map[string]int {
	out := map[string]int{}
	for _, r := range log {
		if r.Type == "decision" {
			out[r.Kind]++
		}
	}
	return out
}
