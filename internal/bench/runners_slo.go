package bench

import (
	"fmt"

	"graf/internal/obs"
)

// sloBurn demonstrates the multi-window error-budget alerting contract
// (DESIGN.md §3i): under a sustained SLO violation the fast window — sized
// to page on incidents — fires strictly before the slow window that guards
// the long-term budget, and fires again after a recovery, across every
// burn-rate configuration swept. The ordering is also pinned by
// TestSLOFastFiresBeforeSlow.
func sloBurn(s Scale) Result {
	res := Result{
		Title:  "SLO error-budget burn: multi-window alert ordering under a sustained violation",
		Header: []string{"config", "budget", "fast alert s", "slow alert s", "lead s", "re-armed"},
	}

	type sweep struct {
		name string
		cfg  obs.SLOConfig
	}
	sweeps := []sweep{
		{"default 60s/600s 10x/2x", obs.SLOConfig{}},
		{"tight 30s/300s 10x/2x", obs.SLOConfig{FastWindowS: 30, SlowWindowS: 300}},
		{"workbook 300s/3600s 14.4x/6x", obs.SLOConfig{
			FastBurn: 14.4, SlowBurn: 6, FastWindowS: 300, SlowWindowS: 3600,
		}},
	}
	if s.Name != "quick" {
		sweeps = append(sweeps,
			sweep{"loose budget 5%", obs.SLOConfig{Budget: 0.05}},
			sweep{"tiny budget 0.5%", obs.SLOConfig{Budget: 0.005}},
		)
	}

	// drive replays one incident against a fresh monitor: a clean steady
	// state, then a sustained violation until both windows fire, then a
	// recovery long enough to drain the fast window, then a second burn.
	// Everything runs on simulated time, so the timeline is deterministic.
	drive := func(cfg obs.SLOConfig) (fastAt, slowAt float64, rearmed bool) {
		m := obs.NewSLOMonitor(cfg, nil)
		eff := m.Config()
		const tickS = 1.0
		now := 0.0
		tick := func(violated bool) []obs.SLOAlert {
			now += tickS
			return m.Observe("checkout", now, violated, tickS)
		}

		for i := 0; i < 120; i++ {
			if alerts := tick(false); len(alerts) != 0 {
				panic(fmt.Sprintf("slo-burn: alert %+v during clean steady state", alerts[0]))
			}
		}
		onset := now

		fastS := eff.FastBurn * eff.Budget * eff.FastWindowS
		slowS := eff.SlowBurn * eff.Budget * eff.SlowWindowS
		fastAt, slowAt = -1, -1
		for i := 0; i < int(slowS+eff.SlowWindowS)+10 && slowAt < 0; i++ {
			for _, a := range tick(true) {
				switch {
				case a.Window == "fast" && fastAt < 0:
					fastAt = a.At - onset
				case a.Window == "slow" && slowAt < 0:
					slowAt = a.At - onset
				}
			}
		}

		// Rising-edge re-arm: recover until the fast window drains, then
		// burn again and expect a second fast page.
		for i := 0; i < int(eff.FastWindowS+fastS)+10; i++ {
			tick(false)
		}
		for i := 0; i < int(fastS)+10 && !rearmed; i++ {
			for _, a := range tick(true) {
				if a.Window == "fast" {
					rearmed = true
				}
			}
		}
		return fastAt, slowAt, rearmed
	}

	ordered := true
	var defFast, defSlow float64
	for i, sw := range sweeps {
		fastAt, slowAt, rearmed := drive(sw.cfg)
		eff := obs.NewSLOMonitor(sw.cfg, nil).Config()
		if fastAt < 0 || slowAt < 0 || fastAt >= slowAt {
			ordered = false
			res.Fail("ordering %s: fast@%.0fs slow@%.0fs", sw.name, fastAt, slowAt)
		}
		if !rearmed {
			res.Fail("re-arm %s: fast alert did not re-fire after recovery", sw.name)
		}
		if i == 0 {
			defFast, defSlow = fastAt, slowAt
		}
		res.AddRow(sw.name, fmt.Sprintf("%.3g", eff.Budget),
			f0(fastAt), f0(slowAt), f0(slowAt-fastAt), fmt.Sprint(rearmed))
	}

	res.Note("slo_fast_before_slow=%v (default config: fast@%.0fs, slow@%.0fs after onset, lead %.0fs)",
		ordered, defFast, defSlow, defSlow-defFast)
	res.Note("thresholds: fast fires after FastBurn·Budget·FastWindowS violation-seconds, slow after SlowBurn·Budget·SlowWindowS — fast < slow by construction in every swept pair")
	res.Note("alerts are rising-edge with re-arming on recovery; ordering is pinned by TestSLOFastFiresBeforeSlow")
	res.Note("the monitor runs on simulated time, so the alert stream is deterministic and byte-safe in the audit log (graf_slo_* metrics carry the live view)")
	return res
}
