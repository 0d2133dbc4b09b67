package bench

import (
	"graf/internal/azure"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/forecast"
	"graf/internal/sim"
	"graf/internal/workload"
)

// forecastOut summarizes one policy's run on a time-varying workload.
type forecastOut struct {
	violS     float64 // seconds the rolling p99 sat above the SLO
	coreHours float64 // ∫ realized quota dt (core-hours) — the provisioning bill
	worstP99  float64 // worst rolling p99 sample (s)
	fcSolves  int     // solves driven by the forecasted rate
	prewarms  int     // pre-warm orders placed ahead of forecasted demand
	matured   int64   // matured forecast/actual pairs
	mae       float64 // mean absolute forecast error (rps)
}

// runForecastPolicy runs one GRAF controller — forecasting when fc.Enabled,
// paper-exact reactive otherwise — against a workload generator for horizonS
// seconds and scores SLO-violation time and the provisioning bill. attach
// starts the generator once the cluster is warm and returns its stop.
func runForecastPolicy(tr *Trained, fc forecast.Config, horizonS, scoreFromS, warmRate float64, seed int64,
	attach func(cl *cluster.Cluster) (stop func())) forecastOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	// The generator runs through the warm-up: a controller whose first tick
	// reads a rate window that predates the traffic sees a half-empty
	// window — a phantom half-rate sample that would poison the seasonal
	// bootstrap before the Hampel ring has history to reject it with.
	stopGen := attach(cl)
	warmStart(eng, cl, warmRate)

	cfg := core.DefaultControllerConfig(tr.Spec.SLO)
	cfg.Forecast = fc
	ctl := newGRAFController(tr, cl, cfg)
	ctl.Start()

	out := forecastOut{}
	start := eng.Now()
	// Both policies are scored over the same window, offset so the
	// comparison starts once each policy is in its steady regime (for the
	// seasonal model that means after its bootstrap periods — before that
	// the two loops are identical by construction, and scoring the shared
	// prefix only dilutes the contrast).
	measureFrom := start + scoreFromS
	violations := 0
	stopTick := eng.Ticker(measureFrom, 2, func() {
		p99 := cl.E2ELatencyQuantile(0.99, 10)
		if p99 > out.worstP99 {
			out.worstP99 = p99
		}
		if p99 > tr.Spec.SLO {
			violations++
		}
		out.coreHours += cl.TotalRealizedQuota() / 1000 * 2 / 3600
	})
	eng.RunUntil(start + horizonS)
	stopTick()
	stopGen()
	ctl.Stop()
	eng.RunUntil(start + horizonS + 30)

	out.violS = float64(violations) * 2
	st := ctl.Stats()
	out.fcSolves = st.ForecastSolves
	out.prewarms = st.Prewarms
	if p := ctl.Forecaster(); p != nil {
		out.matured = p.MaturedN
		out.mae = p.MAE()
	}
	return out
}

// forecastDiurnal is the diurnal-seasonality study: an open-loop rate cycling
// between trough and peak every two minutes with AR(1) wobble. Holt-Winters
// learns the cycle (period = 120 s / 5 s interval = 24 ticks, the default)
// and the controller scales into each climb before it arrives.
func forecastDiurnal(tr *Trained, horizonS float64, fc forecast.Config) forecastOut {
	wcfg := workload.DiurnalConfig{
		Seed:    7,
		Seconds: int(horizonS) + 180, // covers warm-up offset and drain
		PeriodS: 120,
		Base:    150,
		Amp:     80, // trough ~70 rps, peak ~230 — inside the trained range
	}
	rate := workload.SeriesRate(workload.Diurnal(wcfg), 1)
	// Score after HW's two bootstrap periods plus the warm-up margin: up to
	// there the forecasted and reactive loops are the same controller.
	scoreFrom := 2*wcfg.PeriodS + 30
	return runForecastPolicy(tr, fc, horizonS, scoreFrom, wcfg.Base, 73,
		func(cl *cluster.Cluster) func() {
			g := workload.NewOpenLoop(cl, rate)
			g.Start()
			return g.Stop
		})
}

// forecastAzure is the real-workload study: the Fig-20 Azure-style invocation
// trace driven closed-loop, with the AR model forecasting the correlated
// minute-to-minute drift (the trace has no clean seasonality for HW to lock
// onto).
func forecastAzure(tr *Trained, s Scale, fc forecast.Config) forecastOut {
	cfg := azure.DefaultTrace()
	if s.Name == "quick" {
		cfg.Minutes, cfg.DropAt = 15, 8
	}
	trace := azure.Generate(cfg)
	horizon := float64(len(trace)) * 60
	usersFn := workload.TraceUsers(trace, 24)
	initialRate := float64(usersFn(0)) * 0.4
	return runForecastPolicy(tr, fc, horizon, 30, initialRate, 51,
		func(cl *cluster.Cluster) func() {
			g := workload.NewClosedLoop(cl, usersFn)
			g.Start()
			return g.Stop
		})
}

// forecastVsReactive compares proactive (forecasted-quantile) against
// reactive (observed-rate) provisioning on the diurnal cycle and the Azure
// trace. Its floor is the subsystem's reason to exist: on both workloads,
// planning on the forecast must buy strictly fewer SLO-violation seconds
// than reacting to the observed rate — capacity ordered at the forecast
// horizon lands before the climb, not after it. Where reacting already
// violates nothing there is nothing to buy, and a forecast that violates
// nothing either passes.
func forecastVsReactive(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Forecasted vs reactive provisioning: scale ahead of the surge (Online Boutique)",
		Header: []string{"workload", "policy", "viol_s", "core_h", "worst_p99_ms", "fc_solves", "prewarms", "mae_rps"}}

	// Three full cycles after bootstrap: HW needs two periods of history
	// before it forecasts, then every later climb is pre-warmed.
	diurnalHorizon := 720.0
	if s.SteadyS+s.SurgeS > diurnalHorizon {
		diurnalHorizon = s.SteadyS + s.SurgeS
	}
	hw := forecast.Config{Enabled: true, Model: "hw", PeriodTicks: 24}
	dRe := forecastDiurnal(tr, diurnalHorizon, forecast.Config{})
	dFc := forecastDiurnal(tr, diurnalHorizon, hw)

	ar := forecast.Config{Enabled: true, Model: "ar"}
	aRe := forecastAzure(tr, s, forecast.Config{})
	aFc := forecastAzure(tr, s, ar)

	row := func(wl, policy string, o forecastOut) {
		res.AddRow(wl, policy, f1(o.violS), f2(o.coreHours), ms(o.worstP99),
			di(o.fcSolves), di(o.prewarms), f1(o.mae))
	}
	row("diurnal", "reactive", dRe)
	row("diurnal", "forecast-hw", dFc)
	row("azure", "reactive", aRe)
	row("azure", "forecast-ar", aFc)
	res.Note("ordering target: forecasted strictly below reactive on viol_s for both workloads — the horizon covers the Figure-1 startup latency, so capacity lands before the climb instead of after it")
	floor := func(wl string, fc, re forecastOut) {
		if fc.violS >= re.violS && fc.violS > 0 {
			res.Fail("%s: forecasted violation seconds %.0f not below reactive %.0f", wl, fc.violS, re.violS)
		}
	}
	floor("diurnal", dFc, dRe)
	floor("azure", aFc, aRe)
	return res
}
