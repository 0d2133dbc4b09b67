package bench

import (
	"fmt"
	"math"

	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/lifecycle"
	"graf/internal/sim"
	"graf/internal/workload"
)

// driftOut summarizes one controller variant's run through the drift
// scenario.
type driftOut struct {
	violS    float64 // seconds of post-drift samples with p99(10s) > SLO
	worstP99 float64 // worst sliding p99 after the drift lands (s)
	gen      int     // final incumbent generation (static: always 0)
	phase    string  // final lifecycle phase
	trips    int
	promos   int
	rolls    int
	rejects  int
	stranded int
	events   []string // lifecycle event log ("t=312 promote: …")
	buckets  []int    // violation seconds per minute after the drift
}

// driftScenario permanently multiplies every service's CPU work: a global
// code regression. Unlike a contention burst it never expires — the latency
// surface the model was trained on is simply gone.
func driftScenario(factor float64) chaos.Scenario {
	return chaos.Scenario{Events: []chaos.Event{
		chaos.Drift(0, "", factor),
	}}
}

// runDrift drives one GRAF control plane — with or without the model
// lifecycle — through the same drift scenario on a warm Online Boutique
// cluster at the evaluation rate. Identical seed, workload, and fault
// script; the only difference is whether a lifecycle manager watches the
// model.
func runDrift(tr *trained, withLifecycle bool, slo float64, seed int64, observeS float64) driftOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	warmStart(eng, cl, evalRate)

	ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(slo))
	ctl.Start()

	// A slow ±25% swell around the evaluation rate. A constant rate would
	// let the hysteresis hold one configuration forever and never consult
	// the (drifted) model again; under a varying workload every proactive
	// re-solve exercises it — which is exactly where a wrong model hurts.
	start := eng.Now()
	g := workload.NewOpenLoop(cl, func(t float64) float64 {
		return evalRate + 60*math.Sin(2*math.Pi*(t-start)/120)
	})
	g.Start()

	// Let the controller settle a full workload period before arming the
	// monitor: the residual of the warm-start transient says nothing about
	// the model.
	eng.RunUntil(eng.Now() + 120)

	var mgr *lifecycle.Manager
	var events []string
	if withLifecycle {
		mgr = lifecycle.NewManager(cl, tr.Model, tr.Bounds, slo, lifecycle.Config{BaseSamples: tr.Samples})
		mgr.OnEvent = func(at float64, kind, detail string) {
			events = append(events, fmt.Sprintf("t=%.0f %s: %s", at, kind, detail))
		}
		mgr.Attach(ctl)
		mgr.Start()
	}

	// The monitor warms up on the pre-drift surface it was trained for.
	eng.RunUntil(eng.Now() + 60)

	inj := chaos.New(cl)
	inj.Play(driftScenario(1.6))

	driftAt := eng.Now()
	var out driftOut
	out.buckets = make([]int, int(observeS/60)+1)
	violations := 0
	stopTick := eng.Ticker(driftAt+2, 2, func() {
		p99 := cl.E2ELatencyQuantile(0.99, 10)
		if p99 > out.worstP99 {
			out.worstP99 = p99
		}
		if p99 > slo {
			violations++
			out.buckets[int((eng.Now()-driftAt)/60)] += 2
		}
	})
	eng.RunUntil(driftAt + observeS)
	stopTick()
	g.Stop()
	ctl.Stop()
	if mgr != nil {
		mgr.Stop()
	}
	eng.Run()

	out.violS = float64(violations) * 2
	if mgr != nil {
		out.gen = mgr.Generation()
		out.phase = mgr.Phase().String()
		out.trips, out.promos, out.rolls, out.rejects, _, _ = mgr.Stats()
		out.events = events
	} else {
		out.phase = "static"
	}
	out.stranded = cl.InFlight()
	return out
}

// drift is the model-lifecycle experiment: a permanent ×1.6 drift of every
// service's queueing surface under a constant 240 rps load, with and without
// the trust subsystem. The static controller keeps solving on the stale
// surface and under-provisions for the rest of the run; the lifecycle
// controller trips its residual monitor, falls back to the demand heuristic,
// retrains a candidate on post-drift telemetry, and canary-promotes it.
// Acceptance: the lifecycle run logs strictly fewer SLO-violation seconds,
// with at least one drift trip and one promotion.
func drift(s Scale) Result {
	tr := boutiquePipeline(s)
	slo := tr.Spec.SLO
	observeS := 600.0
	if s.Name == "quick" {
		observeS = 480
	}
	res := Result{
		Title:  "Model drift: static vs lifecycle-managed controller (Online Boutique, ×1.6 surface drift, 250 ms SLO)",
		Header: []string{"controller", "SLO-viol s", "worst p99", "final gen", "phase", "trips", "promoted", "rolled back", "rejected"},
	}
	outs := map[string]driftOut{}
	for _, mode := range []string{"lifecycle", "static"} {
		o := runDrift(tr, mode == "lifecycle", slo, 42, observeS)
		outs[mode] = o
		res.AddRow(mode, f0(o.violS), ms(o.worstP99), di(o.gen), o.phase,
			di(o.trips), di(o.promos), di(o.rolls), di(o.rejects))
		if o.stranded != 0 {
			res.Fail("%s stranded %d in-flight requests after drain", mode, o.stranded)
		}
	}
	res.Note("violation seconds per minute after drift: lifecycle %v, static %v",
		outs["lifecycle"].buckets, outs["static"].buckets)
	for i, ev := range outs["lifecycle"].events {
		if i >= 12 {
			res.Note("… %d more lifecycle events", len(outs["lifecycle"].events)-i)
			break
		}
		res.Note("%s", ev)
	}
	l, st := outs["lifecycle"], outs["static"]
	if l.violS < st.violS && l.trips >= 1 && l.promos >= 1 {
		res.Note("lifecycle beats static: %.0f vs %.0f violation-seconds, %d drift trip(s), %d promotion(s)",
			l.violS, st.violS, l.trips, l.promos)
	} else {
		res.Fail("lifecycle (%.0f viol-s, %d trips, %d promotions) does not beat static (%.0f viol-s)",
			l.violS, l.trips, l.promos, st.violS)
	}
	if l.gen < 1 {
		res.Fail("final incumbent generation %d, want a promoted one (≥ 1)", l.gen)
	}
	if st.trips != 0 || st.promos != 0 {
		res.Fail("static run tripped %d and promoted %d times: it must carry no lifecycle manager", st.trips, st.promos)
	}
	res.Note(fmt.Sprintf("same seed and workload for both runs; drift lands 180 s after the controllers attach; observed for %.0f s", observeS))
	return res
}
