package core

import (
	"maps"

	"graf/internal/forecast"
	"graf/internal/obs"
)

// ControllerState is the complete serializable state of a Controller: every
// field a decision depends on, so that a controller restored from a snapshot
// resumes producing decisions byte-identical to one that never stopped. It
// is what internal/ckpt persists across control-plane crashes.
type ControllerState struct {
	// At is the simulated time the snapshot was taken.
	At float64

	// Workload memory: hysteresis reference and stale-telemetry baseline.
	LastRate   float64
	LastRateAt float64
	LastSLO    float64

	// LastQuotas is the most recently applied configuration — the boost
	// guardrail's base and the step limiter's reference.
	LastQuotas map[string]float64

	// Counters.
	Solves int
	Boosts int

	// Degraded-mode state machine.
	Health       int
	Stats        HealthStats
	StaleSince   float64
	BreakerOpen  bool
	HealthStreak int
	Unconverged  int

	// Model-lifecycle state. The model weights themselves belong to the
	// lifecycle manager, which a fleet restore rebuilds by re-execution;
	// these two keep record numbering and trust gating consistent across a
	// warm restore even when no lifecycle manager is attached.
	ModelGen int
	Trust    int

	// Brownout-ladder state: the current rung, and the previous solve's raw
	// quota vector (the warm rung's starting point — without it a restored
	// controller's first warm solve would descend from a different point
	// than the uninterrupted run's).
	Brownout int
	LastRaw  []float64

	// Profiles preserves the Workload Analyzer's learned per-API visit
	// multiplicities. Refresh re-derives them from live traces each
	// decision, but under trace loss the analyzer keeps serving the last
	// learned profile — state a restore must carry to stay bit-identical.
	Profiles map[string]map[string]float64

	// Forecast is the workload predictor's complete state (nil when
	// forecasting is disabled, and absent from pre-forecast snapshots —
	// gob decodes a missing field to nil, so old snapshots restore with a
	// cold forecaster rather than failing). It rides inside ControllerState
	// — not an opaque blob beside it — because ApplyAuditTail must advance
	// it record-by-record through the post-crash decisions, which only works
	// on the decoded structure.
	Forecast *forecast.Predictor
}

// clone deep-copies the state: snapshot isolation in both directions.
func (st ControllerState) clone() ControllerState {
	st.LastQuotas = maps.Clone(st.LastQuotas)
	if st.LastRaw != nil {
		st.LastRaw = append([]float64(nil), st.LastRaw...)
	}
	st.Forecast = st.Forecast.Clone()
	return st
}

// Snapshot captures the controller's current state. It is a pure read: the
// running controller is not disturbed.
func (c *Controller) Snapshot() ControllerState {
	var s ControllerState
	c.SnapshotInto(&s)
	return s
}

// SnapshotInto writes Snapshot's value into dst, refilling the maps and the
// slice dst already holds instead of allocating new ones — for a caller
// that encodes each snapshot and keeps none. dst shares nothing with the
// controller.
func (c *Controller) SnapshotInto(dst *ControllerState) {
	quotas, raw, profiles := dst.LastQuotas, dst.LastRaw, dst.Profiles
	*dst = c.st
	dst.At = c.Cluster.Eng.Now()
	dst.LastQuotas = refill(quotas, c.st.LastQuotas)
	dst.LastRaw = append(raw[:0], c.st.LastRaw...)
	dst.Forecast = c.st.Forecast.Clone()
	dst.Profiles = nil
	if c.Analyzer != nil {
		dst.Profiles = c.Analyzer.SnapshotProfiles(profiles)
	}
}

// refill copies src into dst, reusing dst when there is one. A nil src gives
// nil, as maps.Clone does: gob writes an empty map but not a nil one.
func refill(dst, src map[string]float64) map[string]float64 {
	if src == nil {
		return nil
	}
	if dst == nil {
		return maps.Clone(src)
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// Restore overwrites the controller's state from a snapshot, typically on a
// freshly built controller before Start. It deliberately does not fire
// OnHealth or record an obs health transition: restoring is resumption, not
// a state change.
func (c *Controller) Restore(s ControllerState) {
	fresh := c.st.Forecast
	c.st = s.clone()
	c.st.Profiles = nil // the analyzer owns them
	if c.Analyzer != nil && s.Profiles != nil {
		c.Analyzer.RestoreProfiles(s.Profiles)
	}
	// A pre-forecast snapshot (nil) keeps the freshly built predictor: a
	// cold forecaster degrades to reactive until it warms, never worse. A
	// controller built with forecasting off stays off.
	if fresh == nil || s.Forecast == nil {
		c.st.Forecast = fresh
	}
}

// setBrownout moves the brownout rung — SetBrownout live, a "brownout"
// record in the fold. A change zeroes the hysteresis reference (like
// SetTrust) so the next tick reflects the new rung immediately instead of
// coasting on the old one.
func (st *ControllerState) setBrownout(level int) {
	if level < brownoutFull {
		level = brownoutFull
	}
	if level > brownoutHold {
		level = brownoutHold
	}
	if level == st.Brownout {
		return
	}
	st.Brownout = level
	st.LastRate = 0
}

// liveFacts is what a decision knows at the instant it is made and its audit
// record does not carry. The live step hands them to commit; the crash fold
// has only the record, passes nil, and gets the conservative value of each.
// These fields — with the analyzer's Profiles, which the fold leaves at the
// snapshot's — are exactly where a folded state may differ from the state
// that died.
type liveFacts struct {
	// StaleSince is the stale stage's verdict: -1 when the signal was not
	// collapsed, else the instant the collapse began. A solve on a signal
	// whose hold expired and one on a recovered signal write the same
	// record, so the fold assumes recovery (-1): at worst a still-collapsed
	// signal re-arms one more bounded hold after a restart.
	StaleSince float64

	// BreakerHealthy is the breaker's verdict on this tick's solve, which
	// needs the measured p99 at that instant. The fold assumes unhealthy
	// for the HealthStreak count only (whether the breaker is open is exact:
	// the kind says so), which can delay the breaker's close by at most the
	// checkpoint cadence.
	BreakerHealthy bool
}

// observe feeds one tick's observed front-end total to the forecaster and
// returns the fresh forecast with the forecasts that matured against the
// observation. Every decision that read the rate calls it — whatever stage
// then yields — and the fold calls it for the same records, so live, folded
// and restored predictors walk identical state: forecasts are a pure
// function of the observation sequence (no clock, no randomness).
// Observations before one full interval are excluded for the same reason the
// stale-rate reference is: a trailing window over near-zero elapsed time
// reads wildly inflated, and the Hampel sanitizer's ring is still empty at
// that point — one garbage sample would poison the seasonal bootstrap for a
// whole period.
func (st *ControllerState) observe(at, total float64) (forecast.Prediction, []forecast.Matured) {
	if st.Forecast == nil || at < IntervalS {
		return forecast.Prediction{}, nil
	}
	_, matured := st.Forecast.Observe(total)
	pred := st.Forecast.Predict()
	if pred.OK && !st.Forecast.Healthy() {
		st.Stats.ForecastDegraded++
	}
	return pred, matured
}

// commit is the one place a decision changes the controller's memory: given
// the decision's record it advances workload memory, the applied
// configuration, the counters, the breaker and the health state machine. The
// live step calls it after actuating; the crash fold calls it per recorded
// decision with live == nil. It returns the health transition (from == to
// when there was none) for the live step to announce.
func (st *ControllerState) commit(rec *obs.Record, cfg ControllerConfig, live *liveFacts) (from, to HealthState) {
	st.At = rec.At
	switch rec.Kind {
	case kindBoost:
		st.Boosts++
		st.Stats.Boosts++
		fallthrough
	case kindBoostWait:
		st.LastRate = 0 // force a fresh solve once the violation clears
	case kindHold:
		st.Stats.StaleHolds++
	case kindSolve, kindWarmSolve, kindFallback, kindFallbackModel:
		st.commitSolve(rec, cfg, live)
		fallthrough
	case kindBrownoutHeuristic:
		// An allocator ran: this is the rate the next decision's hysteresis
		// and stale detection compare against.
		st.LastRate, st.LastRateAt, st.LastSLO = solveRate(rec), rec.At, cfg.SLO
	}
	switch {
	case rec.Kind == kindBrownoutHold || rec.Kind == kindBoost || rec.Kind == kindBoostWait:
		// Yielded before the stale stage ran.
	case live != nil:
		st.StaleSince = live.StaleSince
	case rec.Kind != kindHold:
		st.StaleSince = -1
	case st.StaleSince < 0:
		st.StaleSince = rec.At
	}
	if rec.Applied != nil {
		// Refilled in place: the record's map is the controller's (or the
		// log's), and the state's outlives it.
		if st.LastQuotas == nil {
			st.LastQuotas = make(map[string]float64, len(rec.Applied))
		}
		clear(st.LastQuotas)
		maps.Copy(st.LastQuotas, rec.Applied)
	}
	if rec.Limited {
		st.Stats.RateLimited++
	}
	from = HealthState(st.Health)
	to = healthAfter(from, rec.Kind)
	if to != from {
		st.Health = int(to)
		st.Stats.Transitions++
	}
	return from, to
}

// commitSolve is commit's share for the four kinds that ran the solver.
func (st *ControllerState) commitSolve(rec *obs.Record, cfg ControllerConfig, live *liveFacts) {
	st.Solves++
	st.ModelGen = rec.ModelGen
	st.LastRaw = append(st.LastRaw[:0], rec.Raw...)
	if rec.FcRate > 0 {
		st.Stats.ForecastSolves++
	}
	if rec.Prewarm > 0 {
		st.Stats.Prewarms++
	}
	if rec.Enveloped {
		st.Stats.EnvelopeClamped++
	}
	if rec.Kind == kindFallback || rec.Kind == kindFallbackModel {
		st.Stats.FallbackSolves++
	}
	// The breaker evaluated this solve unless it is disabled or the solve
	// was a warm-rung short one (see Controller.solve).
	if cfg.BreakerBand > 0 && !rec.Warm {
		st.Unconverged = nextUnconverged(st.Unconverged, rec.Converged, rec.Predicted, cfg.SLO)
		if live == nil || !live.BreakerHealthy {
			st.HealthStreak = 0
		} else if st.BreakerOpen {
			st.HealthStreak++
		}
	}
	// The kind is chosen from the breaker's state after the evaluation:
	// "fallback" if and only if it is open.
	open := rec.Kind == kindFallback
	switch {
	case open && !st.BreakerOpen:
		st.Stats.BreakerTrips++
	case !open && st.BreakerOpen:
		st.Stats.BreakerCloses++
	}
	st.BreakerOpen = open
}

// breakerOpenAfter is the circuit breaker's transition: a closed breaker
// trips on an untrustworthy solve; an open one closes after breakerClose
// consecutive healthy shadow solves, this one included.
func (st *ControllerState) breakerOpenAfter(healthy bool) bool {
	if !st.BreakerOpen {
		return !healthy
	}
	return !(healthy && st.HealthStreak+1 >= breakerClose)
}

// healthAfter is the degraded-mode state machine: the health a decision of
// the given kind leaves behind. Kinds that neither allocate nor judge the
// signal (idle, boost-wait, the brownout rungs) leave it where it was.
func healthAfter(prev HealthState, kind string) HealthState {
	switch kind {
	case kindBoost:
		return boosting
	case kindHold:
		return degradedTelemetry
	case kindFallback, kindFallbackModel:
		return fallbackHeuristic
	case kindSolve, kindWarmSolve:
		return healthy
	case kindHysteresis:
		// Signal recovered and stable: the telemetry degradation, if any,
		// is over.
		if prev == degradedTelemetry {
			return healthy
		}
	}
	return prev
}

// ApplyAuditTail rolls a restored ControllerState forward through the
// audit-log records written after the snapshot was taken — the decisions a
// crashed controller made between its last checkpoint and its death — by
// making, per decision record, the same observe and commit calls the live
// step made: a warm restart resumes as if the snapshot had been taken at the
// crash instant. What the log does not carry is the liveFacts type, nothing
// else: after the fold StaleSince reads -1 where an expired hold was still
// collapsed, HealthStreak restarts from zero, and Profiles stay the
// snapshot's (a live refresh re-learns them within one decision).
//
// Decision records at or before st.At are ignored. "brownout" records —
// ladder transitions — are stamped at the tick boundary, which coincides
// exactly with checkpoint times: one at At == st.At happened at the start of
// the tick after the checkpoint, so that filter is non-strict (re-applying a
// transition the snapshot already holds is a no-op). "health" records are
// ignored: commit derives the transitions they announce.
func ApplyAuditTail(st *ControllerState, tail []obs.Record, cfg ControllerConfig) {
	for i := range tail {
		rec := &tail[i]
		switch {
		case rec.Type == "brownout" && rec.At >= st.At:
			st.setBrownout(int(rec.Summary["to_step"]))
		case rec.Type == "decision" && rec.At > st.At:
			if rec.Kind != kindBrownoutHold { // yielded before collect
				st.observe(rec.At, rec.Total)
			}
			st.commit(rec, cfg, nil)
		}
	}
}
