package chaos

import (
	"fmt"
	"math/rand"

	"graf/internal/overload"
)

// Correlated-chaos campaigns (DESIGN.md §3j): the test harness that drives
// real fleets through correlated faults. A Campaign is a seeded,
// multi-tenant fault script: per-tenant cluster scenarios whose events are
// deliberately CORRELATED across the population (same drift instant, the
// same contention window, aliased telemetry bursts), plus an optional
// brownout schedule for the degradation ladder. The generators are pure
// functions of (seed, tenants) — a campaign replays identically on any
// schedule — and CheckInvariants is the fleet-level verdict every campaign
// run is held to: no lost decisions, no deadline-expired work executed, and
// every brownout ladder walk monotone.
//
// A campaign is plain data: the driver, campaign_test.go, maps Scenarios
// onto fleet tenants by index and Brownout onto the fleet's scripted
// schedule.

// BrownoutWindow is one tick-keyed degradation phase of a campaign — the
// chaos-side mirror of the fleet's scripted brownout phase (chaos cannot
// import fleet; the driver converts).
type BrownoutWindow struct {
	// FromTick..ToTick is the active window; ToTick <= 0 means open-ended.
	FromTick, ToTick int
	// Step is the ladder rung the window requests.
	Step overload.Step
}

// Campaign is a seeded multi-tenant fault script.
type Campaign struct {
	Name string
	// Tenants is the population size the script was generated for.
	Tenants int
	// Scenarios maps tenant index -> that tenant's cluster fault schedule.
	// Indices without an entry run fault-free (the control group).
	Scenarios map[int][]Event
	// Brownout, when non-empty, is the scripted degradation schedule the
	// driver installs fleet-wide.
	Brownout []BrownoutWindow
}

// correlatedDrift scripts a permanent CPU-surface drift that hits most of
// the population at the SAME instant (a rollout gone wrong, a kernel
// regression landing fleet-wide) with per-tenant jitter of a few seconds —
// the correlated version of the single-tenant drift fault.
func correlatedDrift(seed int64, tenants int) Campaign {
	rng := rand.New(rand.NewSource(seed))
	at := 40 + rng.Float64()*20
	c := Campaign{Name: "correlated-drift", Tenants: tenants, Scenarios: map[int][]Event{}}
	for i := 0; i < tenants; i++ {
		if rng.Float64() > 0.75 { // a quarter of the fleet dodges the rollout
			continue
		}
		factor := 1.3 + rng.Float64()*0.5
		c.Scenarios[i] = []Event{Drift(at+rng.Float64()*5, "", factor)}
	}
	return c
}

// noisyNeighbor scripts one tenant saturating shared capacity: the noisy
// index gets a long, heavy contention window, and every co-located tenant
// gets a lighter overlapping window — cross-tenant interference with one
// root cause.
func noisyNeighbor(seed int64, tenants int) Campaign {
	rng := rand.New(rand.NewSource(seed))
	noisy := rng.Intn(max(tenants, 1))
	start := 30 + rng.Float64()*20
	dur := 40 + rng.Float64()*20
	c := Campaign{Name: "noisy-neighbor", Tenants: tenants, Scenarios: map[int][]Event{}}
	for i := 0; i < tenants; i++ {
		factor, d := 1.2+rng.Float64()*0.3, dur*0.8
		if i == noisy {
			factor, d = 2.5+rng.Float64(), dur
		}
		c.Scenarios[i] = []Event{Contend(start+rng.Float64()*5, "", factor, d)}
	}
	return c
}

// cacheAliasing scripts periodic telemetry-corruption bursts phase-locked
// across the population at an interval chosen to alias with typical control
// cadences — every tenant's sanitizer and quantized-decision path sees the
// same bogus spike in the same windows, plus a lossy-arrivals window so the
// corruption lands on thinned telemetry.
func cacheAliasing(seed int64, tenants int) Campaign {
	rng := rand.New(rand.NewSource(seed))
	period := 15 + rng.Float64()*10 // seconds; deliberately near tick cadence
	phase := rng.Float64() * 5
	c := Campaign{Name: "cache-aliasing", Tenants: tenants, Scenarios: map[int][]Event{}}
	for i := 0; i < tenants; i++ {
		ev := []Event{SampleArrivals(20+phase, 0.5, 60)}
		for k := 0; k < 4; k++ {
			ev = append(ev, corruptTelemetry(20+phase+float64(k)*period, 2.0, 30))
		}
		c.Scenarios[i] = ev
	}
	return c
}

// overloadBurst scripts the drill the brownout ladder exists for: a
// fleet-wide contention burst that inflates decision cost, and a scripted
// brownout window covering the burst so the ladder degrades into it and
// recovers out of it.
func overloadBurst(seed int64, tenants int) Campaign {
	rng := rand.New(rand.NewSource(seed))
	start := 30 + rng.Float64()*10
	dur := 30 + rng.Float64()*10
	c := Campaign{Name: "overload-burst", Tenants: tenants, Scenarios: map[int][]Event{}}
	for i := 0; i < tenants; i++ {
		c.Scenarios[i] = []Event{Contend(start+rng.Float64()*3, "", 2+rng.Float64(), dur)}
	}
	// Ticks are ~5s of simulated time: convert the burst window to ticks and
	// brown the fleet out one rung shy of hold for its duration.
	from := int(start / 5)
	to := int((start + dur) / 5)
	c.Brownout = []BrownoutWindow{{FromTick: from, ToTick: to, Step: overload.StepHeuristic}}
	return c
}

// Campaigns returns every campaign generator, seeded.
func Campaigns(seed int64, tenants int) []Campaign {
	return []Campaign{
		correlatedDrift(seed, tenants),
		noisyNeighbor(seed+1, tenants),
		cacheAliasing(seed+2, tenants),
		overloadBurst(seed+3, tenants),
	}
}

// corruptTelemetry returns an event injecting n bogus frontend observations
// at time at: n end-to-end latency samples of latS seconds and n phantom
// arrivals per API.
func corruptTelemetry(at, latS float64, n int) Event {
	return Event{At: at, Kind: telemetryCorrupt, Factor: latS, N: n}
}

// Report is what a campaign driver hands the invariant checker: the
// router/fleet loss counter, the shards' executed-past-deadline tripwires,
// and every tenant's audit bytes.
type Report struct {
	// LostDecisions is the router's failed-restore count (0 in fleet-only runs).
	LostDecisions int
	// ExpiredExecuted sums the shards' executed-past-deadline tripwires.
	ExpiredExecuted int64
	// Audits maps tenant ID -> audit log bytes.
	Audits map[string][]byte
}

// CheckInvariants is the fleet-level verdict a campaign run must pass:
//
//   - zero lost decisions (every restore byte-verified);
//   - zero requests executed past their propagated deadline;
//   - every tenant's brownout ladder walk monotone — entered and exited one
//     rung at a time, never off the ladder — and ended back at full service
//     unless the schedule's last window is open-ended.
func CheckInvariants(rep Report) error {
	if rep.LostDecisions != 0 {
		return fmt.Errorf("chaos: %d lost decisions", rep.LostDecisions)
	}
	if rep.ExpiredExecuted != 0 {
		return fmt.Errorf("chaos: %d requests executed past their deadline", rep.ExpiredExecuted)
	}
	for id, log := range rep.Audits {
		trans, err := BrownoutTransitions(log)
		if err != nil {
			return fmt.Errorf("chaos: tenant %s: unreadable audit log: %w", id, err)
		}
		if err := overload.MonotoneTransitions(trans); err != nil {
			return fmt.Errorf("chaos: tenant %s: %w", id, err)
		}
	}
	return nil
}
