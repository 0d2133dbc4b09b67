package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graf/internal/forecast"
	"graf/internal/obs"
)

// foldAgainstLive runs sc, snapshots the controller at t1 and again at
// sc.until, folds the whole audit log (as read back from its JSONL bytes —
// ApplyAuditTail's own filter picks the tail) onto the early snapshot, and
// requires the result to equal the late one in every field except the four
// the fold is documented not to reproduce: At (last record instant vs.
// snapshot instant), Profiles, and the two liveFacts fields. It returns both
// states un-normalised.
func foldAgainstLive(t *testing.T, name string, sc scenario, t1 float64) (folded, live ControllerState) {
	t.Helper()
	var early ControllerState
	script := sc.script
	sc.script = func(r *scriptRig) {
		if script != nil {
			script(r)
		}
		r.eng.At(t1, func() { early = r.ctl.Snapshot() })
	}
	r, live := sc.run(t)
	log, err := obs.ReadLog(bytes.NewReader(r.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Scripted events past sc.until still fire while the engine drains.
	for len(log) > 0 && log[len(log)-1].At > sc.until {
		log = log[:len(log)-1]
	}
	folded = early.clone()
	ApplyAuditTail(&folded, log, sc.cfg)
	if folded.At <= early.At {
		t.Fatalf("%s: fold processed no decisions; the case exercised nothing", name)
	}
	f, l := folded, live
	f.At, l.At = 0, 0
	f.Profiles, l.Profiles = nil, nil
	f.StaleSince, l.StaleSince = 0, 0
	f.HealthStreak, l.HealthStreak = 0, 0
	if !reflect.DeepEqual(f, l) {
		t.Errorf("%s: folded state diverges from live state:\nfolded: %+v\nlive:   %+v\nforecast folded: %+v\nforecast live:   %+v",
			name, f, l, f.Forecast, l.Forecast)
	}
	return folded, live
}

// TestApplyAuditTailMatchesLiveState is the warm-restore fold contract: a
// snapshot taken at t1 rolled forward through the audit records in (t1, t2]
// must land on the state a live snapshot at t2 reports. Five fixed cases pin
// the paths by name — and pin the documented inexact set by asserting the
// divergence where it must occur — then sixty seeded random scenarios mix
// rate steps, black-holes on either side of StaleHoldMaxS, a lying model,
// ladder walks and the forecaster.
func TestApplyAuditTailMatchesLiveState(t *testing.T) {
	cases := digestScenarios(2)
	byName := func(name string) scenario {
		for _, c := range cases {
			if c.name == name {
				return c.sc
			}
		}
		t.Fatalf("no scenario %q", name)
		return scenario{}
	}

	// A surge: the tail holds solves, boosts and boost-waits, not just
	// hysteresis skips.
	surge := byName("surge-boost-cap")
	surge.until = 150
	folded, _ := foldAgainstLive(t, "surge", surge, 50)
	if folded.Boosts == 0 || folded.Solves == 0 {
		t.Errorf("surge: the tail held %d boosts, %d solves", folded.Boosts, folded.Solves)
	}

	// Ladder transitions: "brownout" records, warm solves, heuristic and
	// hold decisions.
	folded, _ = foldAgainstLive(t, "brownout", byName("brownout-ladder"), 80)
	if folded.Brownout != BrownoutFull || folded.Solves == 0 {
		t.Errorf("brownout: fold landed on rung %d after %d solves", folded.Brownout, folded.Solves)
	}

	// The predictor — ring buffers, pending forecasts, residuals, blowout
	// state — must land on exactly the state the live one reports.
	fc := byName("forecast-diurnal-prewarm")
	fc.until = 450
	folded, live := foldAgainstLive(t, "forecast", fc, 250)
	if folded.Stats.ForecastSolves == 0 || live.Forecast == nil || !live.Forecast.HW.Ready() {
		t.Error("forecast: the fold advanced no forecast-driven solve on a warmed predictor")
	}

	// An expired hold on a signal that stays collapsed: the live controller
	// remembers when the collapse began, the log cannot say (liveFacts).
	expired := byName("blackhole-hold-expiry")
	expired.until = 122 // the tick after the fourth hold: expired, solved, still collapsed
	folded, live = foldAgainstLive(t, "hold-expiry", expired, 80)
	if folded.Stats.StaleHolds == 0 || folded.StaleSince != -1 || live.StaleSince < 0 {
		t.Errorf("hold-expiry: StaleSince folded %v, live %v after %d holds: want -1 against the collapse instant",
			folded.StaleSince, live.StaleSince, folded.Stats.StaleHolds)
	}

	// A breaker that trips and closes inside the tail: whether it is open is
	// exact, the healthy-streak count behind the close is not (liveFacts).
	folded, live = foldAgainstLive(t, "breaker", byName("lying-model-breaker"), 100)
	if folded.Stats.BreakerCloses == 0 || folded.HealthStreak != 0 || live.HealthStreak == 0 {
		t.Errorf("breaker: HealthStreak folded %d, live %d after %d closes: want 0 against the closing streak",
			folded.HealthStreak, live.HealthStreak, folded.Stats.BreakerCloses)
	}

	for seed := int64(1); seed <= 60; seed++ {
		sc, t1 := randomFoldScenario(seed)
		foldAgainstLive(t, fmt.Sprint("seed ", seed), sc, t1)
	}
}

// randomFoldScenario draws one fold scenario on the pre-provisioned
// two-service rig (clock starts at 30).
func randomFoldScenario(seed int64) (scenario, float64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultControllerConfig(0.25)
	if rng.Intn(2) == 0 {
		cfg.Hysteresis = 0
	}
	if rng.Intn(2) == 0 {
		cfg.ViolationBoost = 1
	}
	cfg.StaleHoldMaxS = 15
	if seed%2 == 0 {
		cfg.Forecast = forecast.Config{Enabled: true, Model: "hw", PeriodTicks: 12, HorizonTicks: 2}
	}
	steps := make([]float64, 16)
	for i := range steps {
		steps[i] = 20 + 100*rng.Float64()
	}
	t1 := 50 + 60*rng.Float64()
	sc := scenario{robotShop: true, seed: seed, cfg: cfg, until: t1 + 30 + 70*rng.Float64(),
		rate: func(t float64) float64 { return steps[int(t/20)%len(steps)] }}

	blackhole, lie := rng.Intn(2) == 0, rng.Intn(2) == 0
	holeAt, lieAt := 40+80*rng.Float64(), 40+80*rng.Float64()
	holeFor := 8.0 // recovers inside the hold
	if rng.Intn(2) == 0 {
		holeFor = 45 // outlives StaleHoldMaxS: hold, expiry, solves on the collapsed signal
	}
	type walk struct {
		at   float64
		step int
	}
	var ladder []walk
	for i := rng.Intn(4); i > 0; i-- {
		ladder = append(ladder, walk{40 + 140*rng.Float64(), rng.Intn(BrownoutHold + 1)})
	}
	sc.script = func(r *scriptRig) {
		if blackhole {
			r.eng.At(holeAt, func() { r.cl.SetArrivalSampling(0.05) })
			r.eng.At(holeAt+holeFor, func() { r.cl.SetArrivalSampling(1) })
		}
		if lie {
			r.eng.At(lieAt, func() { *r.lie = true })
			r.eng.At(lieAt+30, func() { *r.lie = false })
		}
		for _, w := range ladder {
			r.brownoutAt(w.at, w.step)
		}
	}
	return sc, t1
}
