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

// brownoutRig builds the standard OnlineBoutique control loop with an audit
// sink and zero hysteresis, so every decision takes the model path and the
// ladder rungs are exercised on every tick they are active. The box is wide
// enough to meet the SLO at the surge rate: a solve that saturates the upper
// bounds is the same from any start, and the warm rung's replay contract
// would go untested.
func brownoutRig(buf *bytes.Buffer) (*sim.Engine, *Controller, *obs.Telemetry, ControllerConfig, hyperbola, *workload.OpenLoop) {
	a := app.OnlineBoutique()
	eng := sim.NewEngine(9)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	h := hyperbola{a: []float64{2, 2, 2, 2, 2, 2}, c: 0.01}
	b := Bounds{
		Lo: []float64{100, 100, 100, 100, 100, 100},
		Hi: []float64{30000, 30000, 30000, 30000, 30000, 30000},
	}
	cfg := DefaultControllerConfig(0.150)
	cfg.Hysteresis = 0
	tel := obs.New(obs.Options{AuditW: buf})
	tel.Flight.Record(obs.Record{
		Type: "header", App: a.Name, SLO: cfg.SLO,
		Services: a.ServiceNames(), Solver: SolverConfigMap(cfg.Solver),
	})
	ctl := NewController(cl, h, NewAnalyzer(a), b, cfg)
	ctl.Obs = obs.NewControllerObs(tel)
	gen := workload.NewOpenLoop(cl, workload.StepRate(40, 200, 30))
	gen.Start()
	return eng, ctl, tel, cfg, h, gen
}

// TestBrownoutLadderKindsAndReplay walks a controller down the ladder and
// back up and checks two contracts at once: every rung stamps its distinct
// decision kind, and the audit log — including the truncated warm solves —
// replays bit-identically from its recorded inputs. Warm solves depend on
// state outside their own record (the previous solve's raw output), so this
// is the test that pins the replay-side warm-start reconstruction.
func TestBrownoutLadderKindsAndReplay(t *testing.T) {
	var buf bytes.Buffer
	eng, ctl, tel, _, h, gen := brownoutRig(&buf)
	ctl.Start()
	eng.At(100, func() { ctl.SetBrownout(BrownoutWarm) })
	eng.At(150, func() { ctl.SetBrownout(BrownoutHeuristic) })
	eng.At(180, func() { ctl.SetBrownout(BrownoutHold) })
	eng.At(210, func() { ctl.SetBrownout(BrownoutFull) })
	eng.RunUntil(300)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if err := tel.Flight.Flush(); err != nil {
		t.Fatal(err)
	}

	log, err := obs.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, r := range log {
		if r.Type == "decision" {
			kinds[r.Kind]++
		}
	}
	for _, k := range []string{"solve", "warm-solve", "brownout-heuristic", "brownout-hold"} {
		if kinds[k] == 0 {
			t.Errorf("no %q decisions recorded (kinds: %v)", k, kinds)
		}
	}

	rep := ReplayAudit(h, log)
	if rep.Solves == 0 {
		t.Fatal("no solve decisions replayed")
	}
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("brownout log not bit-identical on replay: %s", rep)
	}

	// A warm solve replayed without its warm start must not silently match:
	// strip the Warm flag from one warm-solve record and the replay has to
	// flag it (otherwise the flag carries no information and the
	// reconstruction is untested).
	for i := range log {
		if log[i].Kind == "warm-solve" {
			log[i].Warm = false
			break
		}
	}
	if ReplayAudit(h, log).OK() {
		t.Error("replay accepted a warm-solve record with the Warm flag stripped")
	}
}
