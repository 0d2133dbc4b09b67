package core

import (
	"bytes"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/forecast"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// forecastRig builds the standard boutique test rig with the forecasting
// subsystem enabled and a diurnal workload whose period matches the
// predictor's seasonal configuration (120 s = 24 ticks at the 5 s interval).
func forecastRig(seed int64) (*sim.Engine, *cluster.Cluster, ControllerConfig, hyperbola, Bounds, func(float64) float64) {
	a := app.OnlineBoutique()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	h := hyperbola{a: []float64{2, 2, 2, 2, 2, 2}, c: 0.01}
	b := Bounds{
		Lo: []float64{100, 100, 100, 100, 100, 100},
		Hi: []float64{6000, 6000, 6000, 6000, 6000, 6000},
	}
	cfg := DefaultControllerConfig(0.150)
	cfg.Forecast = forecast.Config{Enabled: true, Model: "hw", PeriodTicks: 24, HorizonTicks: 3}
	rate := workload.SeriesRate(workload.Diurnal(workload.DiurnalConfig{
		Seconds: 700, PeriodS: 120, Base: 140, Amp: 80, Seed: 5,
	}), 1)
	return eng, cl, cfg, h, b, rate
}

// TestForecastDrivesSolvesAndPrewarms is the live-path smoke contract: on a
// seasonal workload the forecaster must actually drive solves (FcRate on the
// records, ForecastSolves counting) and order instances ahead of forecasted
// demand at least once per climb.
func TestForecastDrivesSolvesAndPrewarms(t *testing.T) {
	eng, cl, cfg, h, b, rate := forecastRig(9)
	var buf bytes.Buffer
	tel := obs.New(obs.Options{AuditW: &buf})
	ctl := NewController(cl, h, NewAnalyzer(cl.App), b, cfg)
	ctl.Obs = obs.NewControllerObs(tel)
	ctl.Start()
	gen := workload.NewOpenLoop(cl, rate)
	gen.Start()
	eng.RunUntil(600)
	gen.Stop()
	ctl.Stop()
	eng.Run()

	if got := ctl.Stats().ForecastSolves; got == 0 {
		t.Error("forecaster never drove a solve on a matched seasonal workload")
	}
	if ctl.Forecaster() == nil || ctl.Forecaster().MaturedN == 0 {
		t.Error("no forecasts matured over a 600 s run")
	} else if !ctl.Forecaster().Healthy() {
		t.Error("the forecaster ends a matched seasonal run unhealthy")
	}
	if err := tel.Flight.Flush(); err != nil {
		t.Fatal(err)
	}
	log, err := obs.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fcDriven, fcRecords, prewarms := 0, 0, 0
	for _, r := range log {
		if r.Type == "decision" && r.FcRate > 0 {
			fcDriven++
		}
		if r.Type == "decision" && r.Prewarm != 0 {
			if r.Prewarm < 0 || r.PrewarmLeadS <= 0 || r.PrewarmReadyS <= 0 {
				t.Errorf("t=%v: pre-warm of %d instances, lead %v s, ready %v s: non-positive", r.At, r.Prewarm, r.PrewarmLeadS, r.PrewarmReadyS)
			}
			prewarms++
		}
		if r.Type == "forecast" {
			fcRecords++
		}
	}
	if fcDriven == 0 {
		t.Error("no decision record carries FcRate")
	}
	if fcRecords == 0 {
		t.Error("no forecast maturation records in the audit log")
	}
	if prewarms == 0 || ctl.Stats().Prewarms != prewarms {
		t.Errorf("prewarms: records %d, stats %d — want equal and > 0", prewarms, ctl.Stats().Prewarms)
	}
}

// TestForecastReplayBitIdentical: enabling the forecaster must not loosen
// the audit-replay contract — forecast-driven decisions record their
// effective (forecast-scaled) solver inputs, so every solve still reproduces
// bit-for-bit, and the extra "forecast" records pass through replay ignored.
func TestForecastReplayBitIdentical(t *testing.T) {
	eng, cl, cfg, h, b, rate := forecastRig(9)
	var buf bytes.Buffer
	tel := obs.New(obs.Options{AuditW: &buf})
	tel.Flight.Record(obs.Record{
		Type: "header", App: cl.App.Name, SLO: cfg.SLO,
		Services: cl.App.ServiceNames(), Solver: SolverConfigMap(cfg.Solver),
	})
	ctl := NewController(cl, h, NewAnalyzer(cl.App), b, cfg)
	ctl.Obs = obs.NewControllerObs(tel)
	ctl.Start()
	gen := workload.NewOpenLoop(cl, rate)
	gen.Start()
	eng.RunUntil(500)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if err := tel.Flight.Flush(); err != nil {
		t.Fatal(err)
	}

	log, err := obs.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fcDriven := 0
	for _, r := range log {
		if r.Type == "decision" && r.FcRate > 0 && len(r.Raw) > 0 {
			fcDriven++
		}
	}
	if fcDriven == 0 {
		t.Fatal("no forecast-driven solves recorded; the replay exercised nothing new")
	}
	rep := ReplayAudit(h, log)
	if rep.Solves == 0 {
		t.Fatal("no solve decisions replayed")
	}
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("replay not bit-identical with forecasting enabled: %s", rep)
	}
	if rep.Matched != rep.Solves {
		t.Errorf("matched %d of %d solves", rep.Matched, rep.Solves)
	}
}

// TestForecastSnapshotRestoreResumesByteIdentical extends the
// restore-invariant contract to the forecaster: a controller snapshotted
// mid-surge with a warmed-up predictor, torn down, rebuilt and Restored must
// keep producing decisions — forecasts included — byte-identical to one that
// never stopped.
func TestForecastSnapshotRestoreResumesByteIdentical(t *testing.T) {
	const swapAt = 300.0 // mid second diurnal cycle, predictor warmed and driving

	run := func(interrupt bool) *bytes.Buffer {
		eng, cl, cfg, h, b, rate := forecastRig(9)
		var buf bytes.Buffer
		tel := obs.New(obs.Options{AuditW: &buf})
		ctl := NewController(cl, h, NewAnalyzer(cl.App), b, cfg)
		ctl.Obs = obs.NewControllerObs(tel)
		ctl.Start()

		if interrupt {
			eng.At(swapAt, func() {
				snap := ctl.Snapshot()
				if snap.Forecast == nil || !snap.Forecast.HW.Ready() {
					t.Error("snapshot taken before the predictor warmed; the test proves nothing")
				}
				ctl.Stop()
				ctl2 := NewController(cl, h, NewAnalyzer(cl.App), b, cfg)
				ctl2.Obs = obs.NewControllerObs(tel)
				ctl2.Restore(snap)
				ctl2.Start()
				ctl = ctl2
			})
		}

		gen := workload.NewOpenLoop(cl, rate)
		gen.Start()
		eng.RunUntil(600)
		gen.Stop()
		ctl.Stop()
		eng.Run()
		if err := tel.Flight.Flush(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	plain := decisionsAfter(t, run(false), swapAt)
	restored := decisionsAfter(t, run(true), swapAt)
	if len(plain) == 0 {
		t.Fatal("no decisions recorded after the swap instant")
	}
	if len(plain) != len(restored) {
		t.Fatalf("record counts diverge: %d uninterrupted, %d restored", len(plain), len(restored))
	}
	for i := range plain {
		if plain[i] != restored[i] {
			t.Fatalf("decision %d diverges after forecast-enabled restore:\nuninterrupted: %s\nrestored:      %s",
				i, plain[i], restored[i])
		}
	}
}
