package bench

import (
	"fmt"
	"slices"
	"strings"

	"graf/internal/autoscale"
	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/sim"
	"graf/internal/workload"
)

// chaosOut summarizes one policy's run through the fault schedule.
type chaosOut struct {
	violRate  float64 // fraction of fault-window samples with p99(10s) > SLO
	worstP99  float64 // worst sliding p99 during the fault window (s)
	recoveryS float64 // first fault → last violating sample (censored at horizon)
	killed    int     // instances killed by the injector
	failed    int     // requests that completed degraded (exhausted retries)
	stranded  int     // in-flight requests left after full drain (must be 0)
	stats     core.HealthStats
	health    []string // health-transition log, GRAF policies only
}

// chaosScenario is the fault schedule every policy faces, relative to the
// injection start: the frontend telemetry pipeline goes dark (plus 90%
// trace drop), a correlated crash kills half of every deployment while the
// telemetry is lying, then a frontend kill and a contention burst probe
// recovery.
func chaosScenario() []chaos.Event {
	return []chaos.Event{
		chaos.BlackholeFrontend(0, 60),
		chaos.DropTraces(0, 0.9, 120),
		chaos.Crash(45, 0.5),
		chaos.Kill(100, "frontend", 1),
		chaos.Contend(140, "productcatalog", 2.0, 30),
	}
}

// runChaosPolicy drives one allocation policy through the chaos scenario on
// a warm Online Boutique cluster at the standard evaluation rate.
// Policies: "graf" (hardened), "graf-vanilla" (guardrails off), "hpa",
// "firm".
func runChaosPolicy(tr *trained, policy string, slo float64, seed int64) chaosOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	warmStart(eng, cl, evalRate) // engine now at 60

	var out chaosOut
	var stopPolicy func()
	var ctl *core.Controller
	switch policy {
	case "graf", "graf-vanilla":
		cfg := core.DefaultControllerConfig(slo)
		if policy == "graf-vanilla" {
			cfg = core.VanillaControllerConfig(slo)
		}
		ctl = newGRAFController(tr, cl, cfg)
		ctl.OnHealth = func(t float64, from, to core.HealthState) {
			out.health = append(out.health, fmt.Sprintf("t=%.0f %s→%s", t, from, to))
		}
		ctl.Start()
		stopPolicy = ctl.Stop
	case "hpa":
		h := autoscale.NewHPA(cl, 0.5)
		h.Start()
		stopPolicy = h.Stop
	case "firm":
		f := autoscale.NewFIRMLike(cl)
		f.Start()
		stopPolicy = f.Stop
	default:
		panic("bench: unknown chaos policy " + policy)
	}

	g := workload.NewOpenLoop(cl, workload.ConstRate(evalRate))
	g.Start()
	settle := eng.Now() + 150
	eng.RunUntil(settle)

	inj := chaos.New(cl)
	inj.Play(chaosScenario())

	// Sample the sliding p99 every 2s through the fault-and-recovery
	// window and count SLO violations.
	faultStart := eng.Now()
	const observeS = 240
	samples, violations := 0, 0
	lastViolationAt := faultStart
	stopTick := eng.Ticker(faultStart+2, 2, func() {
		p99 := cl.E2ELatencyQuantile(0.99, 10)
		samples++
		if p99 > out.worstP99 {
			out.worstP99 = p99
		}
		if p99 > slo {
			violations++
			lastViolationAt = eng.Now()
		}
	})
	eng.RunUntil(faultStart + observeS)
	stopTick()
	g.Stop()
	stopPolicy()
	eng.Run() // drain everything, including retries and startups

	if samples > 0 {
		out.violRate = float64(violations) / float64(samples)
	}
	out.recoveryS = lastViolationAt - faultStart
	out.killed = cl.KilledTotal()
	out.failed = cl.FailedRequests()
	out.stranded = cl.InFlight()
	if ctl != nil {
		out.stats = ctl.Stats()
	}
	return out
}

// chaosRobustness is the robustness experiment: the same deterministic
// fault schedule — lossy telemetry, a correlated 50% crash, a frontend
// kill, a contention burst — against the hardened GRAF controller, the
// paper-exact vanilla controller, and the reactive baselines. The hardened
// controller's stale-telemetry hold is the difference that matters: vanilla
// re-solves on the sampled-down arrival rate and scales in exactly as half
// the capacity dies.
func chaosRobustness(s Scale) Result {
	tr := boutiquePipeline(s)
	slo := tr.Spec.SLO
	res := Result{
		Title: "SLO violations under fault injection (Online Boutique, 240 rps, 250 ms SLO)",
		Header: []string{"policy", "viol %", "worst p99", "recovery s", "killed", "degraded reqs",
			"stale holds", "fallbacks"},
	}
	outs := map[string]chaosOut{}
	for _, policy := range []string{"graf", "graf-vanilla", "hpa", "firm"} {
		o := runChaosPolicy(tr, policy, slo, 42)
		outs[policy] = o
		res.AddRow(policy,
			f1(o.violRate*100), ms(o.worstP99), f0(o.recoveryS),
			fmt.Sprintf("%d", o.killed), fmt.Sprintf("%d", o.failed),
			fmt.Sprintf("%d", o.stats.StaleHolds), fmt.Sprintf("%d", o.stats.FallbackSolves))
		if o.stranded != 0 {
			res.Fail("%s stranded %d in-flight requests after drain", policy, o.stranded)
		}
		if policy == "graf" && len(o.health) > 0 {
			res.Note("hardened health transitions: %v", o.health)
		}
	}
	h, v := outs["graf"], outs["graf-vanilla"]
	if h.violRate >= v.violRate {
		res.Fail("hardened violation rate %.1f%% not below vanilla's %.1f%%", h.violRate*100, v.violRate*100)
	}
	if h.stats.StaleHolds == 0 {
		res.Fail("the telemetry blackhole never engaged the stale-telemetry hold")
	}
	if !slices.ContainsFunc(h.health, func(t string) bool { return strings.Contains(t, "DegradedTelemetry") }) {
		res.Fail("no DegradedTelemetry transition in the hardened health log %v", h.health)
	}
	if st := v.stats; st.StaleHolds != 0 || st.BreakerTrips != 0 || st.RateLimited != 0 {
		res.Fail("vanilla ran with guardrails: %d stale holds, %d breaker trips, %d rate-limited steps", st.StaleHolds, st.BreakerTrips, st.RateLimited)
	}
	res.Note("same seed and fault schedule for every policy; faults start 150 s after the policy attaches")
	res.Note("hpa/firm scale on CPU utilization and never read the faulted telemetry; they dodge the trap here but give up the proactive SLO protection measured in the other experiments")
	return res
}
