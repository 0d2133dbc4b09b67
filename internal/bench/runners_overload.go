package bench

import (
	"fmt"

	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/overload"
	"graf/internal/workload"
)

// overloadLadder compares three overload policies on the same fleet through the
// same contention burst (DESIGN.md §3j):
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
//
// A round costs the model calls its decisions made (predictor requests, the
// fleet's CacheHits + CacheMisses, which do not depend on scheduling), and a
// burst round costs burstFactor times as much: the burst leaves a solver a
// seventh of a core. So the table is the same on every host and at every
// GOMAXPROCS.
func overloadLadder(s Scale) Result {
	return runOverload(s, 9)
}

// burstFactor is the contention a burst round runs under: its model calls
// cost seven times what they cost unloaded.
const burstFactor = 7

// runOverload runs the three policies on a fleet seeded with seed.
func runOverload(s Scale, seed int64) Result {
	res := Result{
		Title:  "Overload brownout ladder vs never-degrade and always-heuristic",
		Header: []string{"policy", "rounds", "deadline misses", "viol s", "transitions"},
	}

	tenants, rounds := 12, 15
	if s.Name != "quick" {
		tenants, rounds = 24, 21
	}
	// The contention burst covers the middle third of the run.
	burstFrom, burstTo := rounds/3, 2*rounds/3
	tr := boutiquePipeline(s)
	// Per-tenant request rate. The boutique cluster must be feasible —
	// p99 near the SLO with the available quota bounds — or every policy
	// violates every tick and the quality axis collapses; 50 rps sits in
	// the regime where the model shaves the tail and the demand-floor
	// heuristic measurably cannot.
	const tenantRate = 50.0

	build := func(scripted []fleet.BrownoutPhase) *fleet.Fleet {
		ccfg := core.DefaultControllerConfig(tr.Spec.SLO)
		// Solve every tick: a coasting controller makes no model calls, so
		// it has no decision cost to bound.
		ccfg.Hysteresis = 0
		// Measure the policies themselves, not the reactive guardrail
		// (precedent: the extension ablations disable it the same way).
		ccfg.ViolationBoost = 1
		cfg := fleet.Config{
			App: tr.App, Model: tr.Model,
			Bounds:  tr.Bounds,
			SLO:     tr.Spec.SLO,
			MinRate: tr.Spec.MinRate, MaxRate: tr.Spec.MaxRate,
			Workers: 2, TickS: 5, Seed: seed,
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

	// cost runs one round and returns the model calls it made.
	cost := func(f *fleet.Fleet) float64 {
		before := f.Stats()
		f.Round()
		after := f.Stats()
		return float64(after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses)
	}

	// The round budget is twice the worst unloaded full-solve round. Round
	// 0 is an idle decision (no telemetry yet), so run enough rounds that
	// the worst is a genuine full solve.
	budget := func() float64 {
		f := build(nil)
		defer f.Stop()
		worst := 0.0
		for r := 0; r < 4; r++ {
			worst = max(worst, cost(f))
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
			gov = overload.NewGovernor(budget)
		}
		var out outcome
		for r := 0; r < rounds; r++ {
			c := cost(f)
			if r >= burstFrom && r < burstTo {
				c *= burstFactor
			}
			if c > budget {
				out.misses++
			}
			if gov != nil {
				if step, changed := gov.Observe(c); changed {
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

	// The governed run's per-tenant audit streams must record a monotone
	// ladder walk — the same invariant the chaos campaign checker holds
	// scripted runs to.
	monotone := true
	for _, tn := range lf.Tenants() {
		trans, err := chaos.BrownoutTransitions(tn.AuditLog())
		if err != nil || overload.MonotoneTransitions(trans) != nil {
			monotone = false
			res.Fail("non-monotone ladder walk in tenant %s audit stream (err %v)", tn.ID, err)
		}
	}
	if ladder.misses >= never.misses {
		res.Fail("ladder deadline misses %d not below never-degrade %d", ladder.misses, never.misses)
	}
	if ladder.violS >= heuristic.violS {
		res.Fail("ladder violation seconds %.0f not below always-heuristic %.0f", ladder.violS, heuristic.violS)
	}
	if ladder.trans < 1 {
		res.Fail("the ladder never moved")
	}

	res.AddRow("never-degrade", di(rounds), di(never.misses), f1(never.violS), di(never.trans))
	res.AddRow("brownout ladder", di(rounds), di(ladder.misses), f1(ladder.violS), di(ladder.trans))
	res.AddRow("always-heuristic", di(rounds), di(heuristic.misses), f1(heuristic.violS), di(heuristic.trans))

	res.Note("round budget %.0f model calls (2x worst unloaded full-solve round); burst rounds %d-%d cost %dx their model calls",
		budget, burstFrom, burstTo-1, burstFactor)
	res.Note("ladder_beats_never=%v: %d vs %d deadline misses (degrade under pressure instead of blowing the budget)",
		ladder.misses < never.misses, ladder.misses, never.misses)
	res.Note("ladder_beats_heuristic=%v: %.0f vs %.0f violation seconds (full solves whenever there is headroom)",
		ladder.violS < heuristic.violS, ladder.violS, heuristic.violS)
	res.Note("ladder transitions=%d monotone=%v (every walk one rung at a time, recorded in the audit stream)",
		ladder.trans, monotone)
	return res
}
