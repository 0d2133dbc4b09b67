package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/overload"
	"graf/internal/workload"
)

// OverloadStats are the machine-checked numbers of the overload experiment,
// exposed separately so BenchmarkOverload can report them as testing.B
// metrics and hold the orderings.
type OverloadStats struct {
	// Round-deadline misses per policy (rounds whose wall clock exceeded
	// the calibrated budget) across the whole run.
	MissesNever     float64
	MissesLadder    float64
	MissesHeuristic float64

	// Simulated SLO-violation seconds per policy, summed over tenants.
	ViolSNever     float64
	ViolSLadder    float64
	ViolSHeuristic float64

	// Ladder activity in the governed run.
	LadderTransitions float64
	Monotone          bool

	// The two orderings the experiment exists to demonstrate.
	LadderBeatsNever     bool // fewer deadline misses than never-degrade
	LadderBeatsHeuristic bool // fewer violation seconds than always-heuristic
}

// Overload compares three overload policies on the same fleet through the
// same CPU-contention burst (DESIGN.md §3j):
//
//   - never-degrade: full GNN solves no matter what — best decisions, but
//     every burst round blows the round deadline;
//   - brownout ladder: the hysteresis governor walks tenants down the
//     degradation ladder while rounds run over budget and back up when the
//     burst passes;
//   - always-heuristic: the demand-floor heuristic all run — cheap rounds,
//     but it cannot shave the tail like the model, so it pays permanently
//     in SLO-violation seconds.
//
// The ladder must beat never-degrade on round-deadline misses AND beat
// always-heuristic on violation seconds: degrading only under pressure is
// strictly better than either fixed policy.
func Overload(s Scale) Result {
	res, _ := OverloadRun(s)
	return res
}

// OverloadRun is Overload plus its raw stats.
func OverloadRun(s Scale) (Result, OverloadStats) {
	res := Result{
		ID:     "overload",
		Title:  "Overload brownout ladder vs never-degrade and always-heuristic",
		Header: []string{"policy", "rounds", "deadline misses", "viol s", "transitions"},
	}

	tenants, rounds := 12, 15
	if s.Name != "quick" {
		tenants, rounds = 24, 21
	}
	// The contention burst covers the middle third of the run.
	burstFrom, burstTo := rounds/3, 2*rounds/3
	tr := BoutiquePipeline(s)
	// Per-tenant request rate. The boutique cluster must be feasible —
	// p99 near the SLO with the available quota bounds — or every policy
	// violates every tick and the quality axis collapses; 50 rps sits in
	// the regime where the model shaves the tail and the demand-floor
	// heuristic measurably cannot.
	const tenantRate = 50.0

	build := func(scripted []fleet.BrownoutPhase) *fleet.Fleet {
		ccfg := core.DefaultControllerConfig(tr.Spec.SLO)
		// Solve every tick: a coasting controller has no decision cost to
		// bound, and the deadline comparison would measure idle time.
		ccfg.Hysteresis = 0
		// Pin per-solve work on solver version 1's fixed schedule: the
		// experiment models an inference-bound decision (2000 model calls)
		// that cannot finish inside the round deadline, which is what the
		// ladder exists for. A version 2 solve fits the deadline at every
		// rung and the policies would have nothing to trade.
		ccfg.Solver.Version = 1
		ccfg.Solver.MaxIters = 2000
		ccfg.Solver.Tolerance = 0
		// Measure the policies themselves, not the reactive guardrail
		// (precedent: the extension ablations disable it the same way).
		ccfg.ViolationBoost = 1
		cfg := fleet.Config{
			App: tr.App, Model: tr.Model,
			Bounds:  tr.Bounds,
			SLO:     tr.Spec.SLO,
			MinRate: tr.Spec.MinRate, MaxRate: tr.Spec.MaxRate,
			Workers: 2, Shards: 2,
			TickS: 5, Seed: 9,
			Controller: &ccfg,
			Brownout:   scripted,
		}
		for i := 0; i < tenants; i++ {
			cfg.Tenants = append(cfg.Tenants, fleet.TenantConfig{
				ID:   fmt.Sprintf("tenant-%02d", i),
				Rate: workload.ConstRate(tenantRate),
			})
		}
		f, err := fleet.New(cfg)
		if err != nil {
			panic(err)
		}
		return f
	}

	// Calibrate the round budget from unloaded full-solve rounds: the
	// deadline the burst must break is relative to this machine, not a
	// hardcoded wall time.
	budgetMS := func() float64 {
		f := build(nil)
		defer f.Stop()
		// Round 0 is an idle decision (no telemetry yet), so run enough
		// rounds that the worst is a genuine full solve.
		worst := 0.0
		for r := 0; r < 4; r++ {
			start := time.Now()
			f.Round()
			if ms := float64(time.Since(start)) / float64(time.Millisecond); ms > worst {
				worst = ms
			}
		}
		return worst * 2
	}()

	type outcome struct {
		misses int
		violS  float64
		trans  int
	}
	run := func(scripted []fleet.BrownoutPhase, governed bool) (outcome, *fleet.Fleet) {
		f := build(scripted)
		var gov *overload.Governor
		if governed {
			gov = overload.NewGovernor(overload.GovernorConfig{BudgetMS: budgetMS})
		}
		var out outcome
		for r := 0; r < rounds; r++ {
			stopBurn := func() {}
			if r >= burstFrom && r < burstTo {
				stopBurn = burnCPU()
			}
			start := time.Now()
			f.Round()
			wallMS := float64(time.Since(start)) / float64(time.Millisecond)
			stopBurn()
			if wallMS > budgetMS {
				out.misses++
			}
			if gov != nil {
				if step, changed := gov.Observe(wallMS); changed {
					f.SetBrownoutTarget(step)
				}
			}
		}
		f.Stop()
		st := f.Stats()
		out.violS = st.ViolationSeconds
		out.trans = st.BrownoutTransitions
		return out, f
	}

	never, _ := run(nil, false)
	heuristic, _ := run([]fleet.BrownoutPhase{{FromTick: 0, Step: overload.StepHeuristic}}, false)
	ladder, lf := run(nil, true)

	st := OverloadStats{
		MissesNever: float64(never.misses), MissesLadder: float64(ladder.misses), MissesHeuristic: float64(heuristic.misses),
		ViolSNever: never.violS, ViolSLadder: ladder.violS, ViolSHeuristic: heuristic.violS,
		LadderTransitions:    float64(ladder.trans),
		LadderBeatsNever:     ladder.misses < never.misses,
		LadderBeatsHeuristic: ladder.violS < heuristic.violS,
	}

	// The governed run's per-tenant audit streams must record a monotone
	// ladder walk — the same invariant the chaos campaign checker holds
	// scripted runs to.
	st.Monotone = true
	for _, tn := range lf.Tenants() {
		trans, err := chaos.BrownoutTransitions(tn.AuditLog())
		if err != nil || overload.MonotoneTransitions(trans) != nil {
			st.Monotone = false
			res.Note("NON-MONOTONE ladder walk in tenant %s audit stream (err %v)", tn.ID, err)
		}
	}

	res.AddRow("never-degrade", di(rounds), di(never.misses), f1(never.violS), di(never.trans))
	res.AddRow("brownout ladder", di(rounds), di(ladder.misses), f1(ladder.violS), di(ladder.trans))
	res.AddRow("always-heuristic", di(rounds), di(heuristic.misses), f1(heuristic.violS), di(heuristic.trans))

	res.Note("round budget %.0fms (2x worst unloaded full-solve round); CPU burst rounds %d-%d via %d spinner goroutines",
		budgetMS, burstFrom, burstTo-1, 6*runtime.NumCPU())
	res.Note("ladder_beats_never=%v: %d vs %d deadline misses (degrade under pressure instead of blowing the budget)",
		st.LadderBeatsNever, ladder.misses, never.misses)
	res.Note("ladder_beats_heuristic=%v: %.0f vs %.0f violation seconds (full solves whenever there is headroom)",
		st.LadderBeatsHeuristic, ladder.violS, heuristic.violS)
	res.Note("ladder transitions=%d monotone=%v (every walk one rung at a time, recorded in the audit stream)",
		ladder.trans, st.Monotone)
	return res, st
}

// burnCPU oversubscribes every core with spinner goroutines and returns a
// stop function — the overload source the burst rounds run under. 6x the
// core count so solver goroutines get at most a eighth of each core and
// full-solve rounds reliably blow the calibrated budget.
func burnCPU() func() {
	var stop atomic.Bool
	done := make(chan struct{})
	n := 6 * runtime.NumCPU()
	for i := 0; i < n; i++ {
		go func() {
			// Deliberately no Gosched: a yielding goroutine lands on the
			// GLOBAL run queue, which the scheduler polls only once per 61
			// scheduling events, so polite spinners burn almost nothing at
			// GOMAXPROCS=1. A tight loop is async-preempted (~10ms quanta)
			// onto the local queue and round-robins fairly with the work.
			for !stop.Load() {
			}
			done <- struct{}{}
		}()
	}
	return func() {
		stop.Store(true)
		for i := 0; i < n; i++ {
			<-done
		}
	}
}
