package bench

import (
	"bytes"
	"fmt"

	"graf/internal/core"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// obsRun executes one instrumented control-loop run and returns the audit
// log bytes it produced. Identical seeds produce identical logs — the
// simulation is deterministic and the recorder captures simulated time, not
// wall time.
func obsRun(tr *Trained, seed int64, horizonS float64) []byte {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	warmStart(eng, cl, EvalRate)

	var buf bytes.Buffer
	tel := obs.New(obs.Options{AuditW: &buf})
	cl.Obs = obs.NewClusterObs(tel)
	cfg := core.DefaultControllerConfig(tr.Spec.SLO)
	ctl := newGRAFController(tr, cl, cfg)
	ctl.Obs = obs.NewControllerObs(tel)
	tel.Flight.Record(core.HeaderRecord(tr.App, cfg, eng.Now()))
	ctl.Start()
	g := workload.NewOpenLoop(cl, workload.StepRate(EvalRate*0.5, EvalRate, eng.Now()+60))
	g.Start()
	eng.RunUntil(eng.Now() + horizonS)
	g.Stop()
	ctl.Stop()
	eng.Run()
	if err := tel.Flight.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// obsReplay verifies the flight recorder's determinism contract two ways:
// an offline replay of the recorded solver inputs must reproduce every
// model-path decision bit-identically, and a second simulation run from the
// same seed must produce a byte-identical audit log.
func obsReplay(s Scale) Result {
	r := Result{
		Title:  "Flight-recorder audit log: offline replay + same-seed determinism",
		Header: []string{"check", "decisions", "solves", "matched", "mismatches", "verdict"},
	}
	tr := BoutiquePipeline(s)
	horizon := s.SteadyS
	if horizon < 120 {
		horizon = 120
	}

	raw := obsRun(tr, 7, horizon)
	log, err := obs.ReadLog(bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	rep := core.ReplayAudit(tr.Model, log)
	verdict := "bit-identical"
	if !rep.OK() {
		verdict = "MISMATCH"
		r.Fail("offline replay: %d of %d solves mismatched", len(rep.Mismatches), rep.Solves)
	}
	r.AddRow("offline solver replay", fmt.Sprint(rep.Decisions), fmt.Sprint(rep.Solves),
		fmt.Sprint(rep.Matched), fmt.Sprint(len(rep.Mismatches)), verdict)

	raw2 := obsRun(tr, 7, horizon)
	same := "byte-identical"
	if !bytes.Equal(raw, raw2) {
		same = "DIVERGED"
		r.Fail("same-seed re-run wrote a different audit log")
	}
	r.AddRow("same-seed re-run", fmt.Sprint(rep.Decisions), fmt.Sprint(rep.Solves),
		"-", "-", same)

	r.Note("offline replay re-runs Solve from each record's inputs (load, effective bounds) and the header's solver config")
	r.Note("float64 values round-trip bit-exactly through the JSONL encoding, so matches are ==, not approximate")
	for _, m := range rep.Mismatches {
		r.Note("mismatch: %s", m)
	}
	return r
}

// obsOverhead measures what the telemetry subsystem adds to one controller
// decision: the same solve-heavy Step loop with instrumentation disabled (nil
// hooks) and enabled (metrics + audit records to a memory-capped recorder).
// Its floor is a ceiling on what enabled allocates per decision over
// disabled; the wall-clock overhead, swamped by the solve, is not gated.
func obsOverhead(s Scale) Result {
	r := Result{
		Title:  "Observability overhead per controller decision",
		Header: []string{"mode", "decisions", "ns/decision", "overhead"},
	}
	// About 1.5 times the reading on a 2-vCPU Xeon: +1626 B and +2.2
	// allocations per decision at quick scale, +1190 B and +2.1 at standard.
	const bytesCeiling, allocsCeiling float64 = 2400, 3.5
	tr := BoutiquePipeline(s)
	steps := 60
	if s.Name == "quick" {
		steps = 20
	}

	run := func(enabled bool) perOp {
		eng := sim.NewEngine(11)
		cl := newCluster(eng, tr.App)
		warmStart(eng, cl, EvalRate)
		ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
		// Defeat hysteresis so every Step takes the full
		// collect→analyze→solve→actuate path.
		ctl.Cfg.Hysteresis = 0
		if enabled {
			tel := obs.New(obs.Options{AuditMemory: 1024})
			cl.Obs = obs.NewClusterObs(tel)
			ctl.Obs = obs.NewControllerObs(tel)
		}
		g := workload.NewOpenLoop(cl, workload.ConstRate(EvalRate))
		g.Start()
		eng.RunUntil(eng.Now() + 30) // build telemetry windows
		ctl.Step()                   // warm caches, first-registration costs
		return measure(steps, func() {
			for i := 0; i < steps; i++ {
				ctl.Step()
			}
		})
	}

	// Interleave repetitions and keep each mode's least, as trace-overhead
	// does: one reading of either mode can carry a GC cycle or a slow slice.
	var off, on perOp
	for rep := 0; rep < 3; rep++ {
		o, e := run(false), run(true)
		if rep == 0 {
			off, on = o, e
		}
		off, on = off.least(o), on.least(e)
	}
	overhead := (on.ns - off.ns) / off.ns * 100
	extraBytes, extraAllocs := on.bytes-off.bytes, on.allocs-off.allocs
	r.AddRow("disabled (nil hooks)", fmt.Sprint(steps), f0(off.ns), "-")
	r.AddRow("enabled (metrics+audit)", fmt.Sprint(steps), f0(on.ns), fmt.Sprintf("%+.1f%%", overhead))
	r.Note("every decision solves (hysteresis defeated); the disabled path costs one nil check per instrumentation point")
	r.Note("gated: enabled allocates %+.0f B and %+.1f allocations per decision over disabled (ceilings %.0f B, %.1f); the wall-clock overhead is printed, not gated",
		extraBytes, extraAllocs, bytesCeiling, allocsCeiling)
	if extraBytes > bytesCeiling || extraAllocs > allocsCeiling {
		r.Fail("instrumentation allocates %+.0f B and %+.1f allocations per decision, ceilings %.0f B and %.1f",
			extraBytes, extraAllocs, bytesCeiling, allocsCeiling)
	}
	return r
}
