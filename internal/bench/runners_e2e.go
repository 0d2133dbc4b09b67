package bench

import (
	"fmt"

	"graf/internal/autoscale"
	"graf/internal/azure"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/metrics"
	"graf/internal/sim"
	"graf/internal/workload"
)

// steadyOut summarizes one policy's steady-state run.
type steadyOut struct {
	p99       float64            // end-to-end p99 over the settled window (s)
	p95       float64            // end-to-end p95 (s)
	quotas    map[string]float64 // settled per-service quota (mc)
	total     float64            // Σ realized quotas (ceil to CPU units, Eq. 7)
	instances float64            // mean instances over the settled window
}

// newGRAFController wires a trained pipeline into a live cluster under cfg,
// telling it the workload range the model was trained on.
func newGRAFController(tr *Trained, cl *cluster.Cluster, cfg core.ControllerConfig) *core.Controller {
	cfg.TrainedMinRate = tr.Spec.MinRate
	cfg.TrainedMaxRate = tr.Spec.MaxRate
	return core.NewController(cl, tr.Model, core.NewAnalyzer(tr.App), tr.Bounds, cfg)
}

// warmStart provisions a fresh cluster near the expected demand and lets
// the instances come up before the policy under test takes over. Steady
// -state comparisons (Fig 14/15/16/18) measure equilibria, not cold-start
// ramps; without this, a 240 rps open loop hitting one instance per service
// buries the whole horizon in backlog.
func warmStart(eng *sim.Engine, cl *cluster.Cluster, totalRate float64) {
	autoscale.ProvisionProactive(cl, totalRate, 0.5)
	eng.RunUntil(eng.Now() + 60)
}

// runGRAFSteady runs GRAF on a warm cluster at a constant open-loop rate.
func runGRAFSteady(tr *Trained, slo, totalRate, horizonS float64, seed int64) steadyOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	warmStart(eng, cl, totalRate)
	ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(slo))
	ctl.Start()
	g := workload.NewOpenLoop(cl, workload.ConstRate(totalRate))
	g.Start()
	return finishSteady(eng, cl, horizonS, func() { g.Stop(); ctl.Stop() })
}

// runHPASteady runs the K8s autoscaler at a fixed utilization threshold on
// a warm cluster.
func runHPASteady(tr *Trained, threshold, totalRate, horizonS float64, seed int64) steadyOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	warmStart(eng, cl, totalRate)
	h := autoscale.NewHPA(cl, threshold)
	h.Start()
	g := workload.NewOpenLoop(cl, workload.ConstRate(totalRate))
	g.Start()
	return finishSteady(eng, cl, horizonS, func() { g.Stop(); h.Stop() })
}

func finishSteady(eng *sim.Engine, cl *cluster.Cluster, horizonS float64, stop func()) steadyOut {
	instSum, instN := 0.0, 0
	start := eng.Now()
	settleFrom := start + (horizonS-start)*2/3
	stopTick := eng.Ticker(start+1, 5, func() {
		if eng.Now() >= settleFrom {
			instSum += float64(cl.TotalInstances())
			instN++
		}
	})
	eng.RunUntil(horizonS)
	stopTick()
	stop()
	eng.RunUntil(horizonS + 30)
	out := steadyOut{quotas: cl.RealizedQuotas()}
	out.p99 = cl.E2EWindow().Quantile(0.99, settleFrom, horizonS)
	out.p95 = cl.E2EWindow().Quantile(0.95, settleFrom, horizonS)
	for _, q := range out.quotas {
		out.total += q
	}
	if instN > 0 {
		out.instances = instSum / float64(instN)
	}
	return out
}

// tuneHPA finds the highest utilization threshold whose settled p99 meets
// the SLO — the paper's hand-tuning of the K8s autoscaler ("we have
// fine-tuned the threshold value of K8s autoscaler to meet latency SLO").
// Results are memoized: several figures tune against the same workload.
var tuneMemo = map[string]tunedHPA{}

type tunedHPA struct {
	th  float64
	out steadyOut
}

func tuneHPA(tr *Trained, slo, totalRate, horizonS float64, seed int64) (float64, steadyOut) {
	key := fmt.Sprintf("%s/%.3f/%.0f/%.0f", tr.App.Name, slo, totalRate, horizonS)
	if t, ok := tuneMemo[key]; ok {
		return t.th, t.out
	}
	th, out := tuneHPAUncached(tr, slo, totalRate, horizonS, seed)
	tuneMemo[key] = tunedHPA{th, out}
	return th, out
}

func tuneHPAUncached(tr *Trained, slo, totalRate, horizonS float64, seed int64) (float64, steadyOut) {
	var thresholds []float64
	for th := 0.95; th >= 0.095; th -= 0.05 {
		thresholds = append(thresholds, th)
	}
	var best steadyOut
	for _, th := range thresholds {
		out := runHPASteady(tr, th, totalRate, horizonS, seed)
		if out.p99 > 0 && out.p99 <= slo {
			return th, out
		}
		best = out
	}
	return 0.1, best
}

// fig14TotalCPU reproduces Figure 14: total CPU quota under GRAF vs the
// fine-tuned K8s autoscaler for both applications, at the same achieved
// latency SLO.
func fig14TotalCPU(s Scale) Result {
	res := Result{Title: "Total CPU quota (millicores): GRAF vs fine-tuned K8s autoscaler",
		Header: []string{"application", "GRAF_mc", "K8s_mc", "saving_%", "GRAF_p99_ms", "K8s_p99_ms", "SLO_ms"}}
	for _, c := range []struct {
		tr   *Trained
		rate float64
	}{
		{BoutiquePipeline(s), EvalRate},
		{SocialPipeline(s), EvalRate},
	} {
		graf := runGRAFSteady(c.tr, c.tr.Spec.SLO, c.rate, s.SteadyS, 21)
		_, k8s := tuneHPA(c.tr, c.tr.Spec.SLO, c.rate, s.SteadyS, 22)
		saving := (k8s.total - graf.total) / k8s.total * 100
		res.AddRow(c.tr.App.Name, f0(graf.total), f0(k8s.total), f1(saving),
			ms(graf.p99), ms(k8s.p99), ms(c.tr.Spec.SLO))
	}
	res.Note("paper: GRAF saves 14-19%% total CPU at equal tail latency (2324 vs 2711 social; 2220 vs 2650 boutique)")
	return res
}

func perMSFigure(tr *Trained, rate float64, s Scale) Result {
	res := Result{Title: tr.App.Name + ": per-microservice CPU quota, GRAF vs fine-tuned K8s autoscaler",
		Header: []string{"service", "GRAF_mc", "K8s_mc"}}
	graf := runGRAFSteady(tr, tr.Spec.SLO, rate, s.SteadyS, 23)
	_, k8s := tuneHPA(tr, tr.Spec.SLO, rate, s.SteadyS, 24)
	for _, name := range tr.App.ServiceNames() {
		res.AddRow(name, f0(graf.quotas[name]), f0(k8s.quotas[name]))
	}
	res.AddRow("total", f0(graf.total), f0(k8s.total))
	res.Note("paper: GRAF shifts quota toward latency-sensitive services and saves elsewhere (Fig 15: more to recommendation/shipping)")
	return res
}

// fig15PerMSBoutique reproduces Figure 15 (Online Boutique MS1..MS6).
func fig15PerMSBoutique(s Scale) Result {
	return perMSFigure(BoutiquePipeline(s), EvalRate, s)
}

// fig16PerMSSocial reproduces Figure 16 (Social Network MS1..MS10).
func fig16PerMSSocial(s Scale) Result {
	return perMSFigure(SocialPipeline(s), EvalRate, s)
}

// fig17SLOTargeting reproduces Figure 17: measured p99 latency of solver
// configurations across a sweep of target SLOs, with the fraction landing
// within their SLO (paper: 85.1%).
func fig17SLOTargeting(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Measured 99%-tile latency vs target SLO (Online Boutique)",
		Header: []string{"SLO_ms", "predicted_ms", "measured_ms", "within"}}
	within, n := 0, 0
	rate := float64(EvalRate)
	load := make([]float64, len(tr.App.Services))
	rates := tr.App.PerServiceRate(tr.App.MixRates(rate))
	for i, name := range tr.App.ServiceNames() {
		load[i] = rates[name]
	}
	for sloMS := 150.0; sloMS <= 360; sloMS += 30 {
		slo := sloMS / 1000
		sol := core.Solve(tr.Model, load, slo, tr.Bounds.Lo, tr.Bounds.Hi, core.DefaultSolverConfig())
		// Deploy the solved configuration and measure.
		eng := sim.NewEngine(int64(31 + sloMS))
		cl := newCluster(eng, tr.App)
		quotas := map[string]float64{}
		for i, name := range tr.App.ServiceNames() {
			quotas[name] = sol.Quotas[i]
		}
		cl.ApplyQuotas(quotas)
		eng.RunUntil(90)
		g := workload.NewOpenLoop(cl, workload.ConstRate(rate))
		g.Start()
		eng.RunUntil(90 + s.SteadyS/2)
		g.Stop()
		measured := cl.E2EWindow().Quantile(0.99, 90+20, 90+s.SteadyS/2)
		ok := measured <= slo
		if ok {
			within++
		}
		n++
		res.AddRow(f0(sloMS), ms(sol.Predicted), ms(measured), fmt.Sprintf("%v", ok))
	}
	res.AddRow("within SLO", fmt.Sprintf("%d/%d", within, n), f1(float64(within)/float64(n)*100)+"%", "paper: 85.1%")
	res.Note("shape target: measured points dense just below the diagonal (tight minimization)")
	return res
}

// fig18UserScaling reproduces Figure 18: total instances for GRAF and the
// tuned K8s autoscaler under increasing simulated users (closed loop), and
// the instances saved.
func fig18UserScaling(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Total instances vs simulated users (Online Boutique, closed loop)",
		Header: []string{"users", "GRAF", "K8s", "saved"}}
	th, _ := tuneHPA(tr, tr.Spec.SLO, EvalRate, s.SteadyS, 41)
	users := []int{500, 1000, 1500, 2000, 2500, 3000}
	if s.Name == "quick" {
		users = []int{300, 600, 900}
	}
	for _, u := range users {
		run := func(graf bool) float64 {
			eng := sim.NewEngine(int64(42 + u))
			cl := newCluster(eng, tr.App)
			var stopCtl func()
			if graf {
				ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
				ctl.Start()
				stopCtl = ctl.Stop
			} else {
				h := autoscale.NewHPA(cl, th)
				h.Start()
				stopCtl = h.Stop
			}
			g := workload.NewClosedLoop(cl, workload.ConstUsers(u))
			g.Start()
			out := finishSteady(eng, cl, s.SteadyS, func() { g.Stop(); stopCtl() })
			return out.instances
		}
		gi, ki := run(true), run(false)
		res.AddRow(di(u), f1(gi), f1(ki), f1(ki-gi))
	}
	res.Note("paper: savings grow roughly linearly with users (tuned HPA threshold %.0f%%)", th*100)
	return res
}

// fig20AzureReplay reproduces Figure 20: total instances over time replaying
// the Azure-functions-style invocation trace, GRAF vs K8s autoscaler.
func fig20AzureReplay(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Azure trace replay: total instances over time (Online Boutique)",
		Header: []string{"t_s", "workload_users", "GRAF", "K8s"}}
	cfg := azure.DefaultTrace()
	if s.Name == "quick" {
		// Shorter window that still contains the sharp drop — the segment
		// where GRAF's immediate scale-down separates from the HPA's
		// 5-minute stabilization.
		cfg.Minutes, cfg.DropAt = 15, 8
	}
	trace := azure.Generate(cfg)
	horizon := float64(len(trace)) * 60
	const perUser = 24 // invocations/min one user thread contributes
	usersFn := workload.TraceUsers(trace, perUser)

	// Closed-loop users issue ~0.4 req/s each (≤5 s think time).
	initialRate := float64(usersFn(0)) * 0.4
	run := func(graf bool) (*metrics.Series, float64, float64) {
		eng := sim.NewEngine(51)
		cl := newCluster(eng, tr.App)
		warmStart(eng, cl, initialRate) // the demo joins a running system
		var stopCtl func()
		if graf {
			ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
			ctl.Start()
			stopCtl = ctl.Stop
		} else {
			h := autoscale.NewHPA(cl, 0.5)
			h.Start()
			stopCtl = h.Stop
		}
		g := workload.NewClosedLoop(cl, usersFn)
		g.Start()
		series := metrics.NewSeries("instances")
		sum, n := 0.0, 0
		start := eng.Now()
		stopTick := eng.Ticker(start+1, 10, func() {
			v := float64(cl.TotalInstances())
			series.Add(eng.Now()-start, v)
			sum += v
			n++
		})
		eng.RunUntil(start + horizon)
		stopTick()
		g.Stop()
		stopCtl()
		eng.RunUntil(start + horizon + 30)
		p95 := cl.E2EWindow().Quantile(0.95, start+horizon/3, start+horizon)
		return series, sum / float64(n), p95
	}
	gs, gAvg, gp95 := run(true)
	ks, kAvg, kp95 := run(false)
	for t := 0.0; t <= horizon; t += 100 {
		res.AddRow(f0(t), di(usersFn(t)), f0(gs.At(t)), f0(ks.At(t)))
	}
	res.AddRow("mean", "", f1(gAvg), f1(kAvg))
	res.AddRow("p95_ms", "", ms(gp95), ms(kp95))
	res.AddRow("net saved %", "", f1((kAvg-gAvg)/kAvg*100), "paper: 21%")
	res.Note("shape target: GRAF tracks the workload up and down; K8s scale-down trails by the 5-minute stabilization window after the drop")
	return res
}

// surgeCompareOut is one policy's outcome in the Fig 21/22 study.
type surgeCompareOut struct {
	series    *metrics.Series
	settled   int     // instances at end of horizon
	peak      int     // peak instances
	converge  float64 // seconds from surge to tail-latency convergence
	settleP99 float64
}

func runSurgeCompare(tr *Trained, policy string, baseUsers, surgeUsers int, surgeAt, horizonS float64, seed int64) surgeCompareOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	var stopCtl func()
	switch policy {
	case "graf":
		ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(tr.Spec.SLO))
		ctl.Start()
		stopCtl = ctl.Stop
	case "hpa":
		h := autoscale.NewHPA(cl, 0.5)
		h.Start()
		stopCtl = h.Stop
	case "firm":
		f := autoscale.NewFIRMLike(cl)
		f.Start()
		stopCtl = f.Stop
	default:
		panic("unknown policy " + policy)
	}
	g := workload.NewClosedLoop(cl, workload.StepUsers(baseUsers, surgeUsers, surgeAt))
	g.Start()
	out := surgeCompareOut{series: metrics.NewSeries(policy)}
	stopTick := eng.Ticker(0.5, 2, func() {
		v := cl.TotalInstances()
		out.series.Add(eng.Now(), float64(v))
		if v > out.peak {
			out.peak = v
		}
	})
	end := surgeAt + horizonS
	eng.RunUntil(end)
	stopTick()
	out.settled = cl.TotalInstances()
	out.settleP99 = cl.E2EWindow().Quantile(0.99, end-40, end)
	// Convergence: first post-surge time the 20 s sliding p99 drops to
	// within 1.3× of the final settled tail and stays representative.
	thr := out.settleP99 * 1.3
	if thr < tr.Spec.SLO {
		thr = tr.Spec.SLO
	}
	out.converge = horizonS
	for t := surgeAt + 20; t <= end; t += 5 {
		if p := cl.E2EWindow().Quantile(0.99, t-20, t); p > 0 && p <= thr {
			out.converge = t - surgeAt
			break
		}
	}
	g.Stop()
	stopCtl()
	eng.RunUntil(end + 60)
	return out
}

// fig21SurgeComparison reproduces Figure 21: total instances during a
// Locust-thread surge for GRAF, the K8s autoscaler and the FIRM-like
// baseline, at 250 and 500 threads.
func fig21SurgeComparison(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Instances during Locust-thread surge: GRAF vs K8s vs FIRM-like",
		Header: []string{"threads", "policy", "settled", "peak", "t+40s", "t+120s"}}
	threadCases := []int{250, 500}
	if s.Name == "quick" {
		threadCases = []int{250}
	}
	for _, threads := range threadCases {
		for _, p := range []string{"graf", "hpa", "firm"} {
			o := runSurgeCompare(tr, p, 50, threads, 60, s.SurgeS, int64(61+threads))
			res.AddRow(di(threads), p, di(o.settled), di(o.peak),
				f0(o.series.At(100)), f0(o.series.At(180)))
		}
	}
	res.Note("paper: GRAF creates 13-60%% fewer instances (e.g. 40/41 vs 100 at 250 threads) and provisions the chain concurrently at ~50s")
	return res
}

// fig22Convergence reproduces Figure 22: time for the end-to-end tail
// latency to converge after the surge.
func fig22Convergence(s Scale) Result {
	tr := BoutiquePipeline(s)
	res := Result{Title: "Time to tail-latency convergence after surge (seconds)",
		Header: []string{"threads", "GRAF", "K8s", "FIRM-like", "settled_p99_ms (G/K/F)"}}
	threadCases := []int{250, 500}
	if s.Name == "quick" {
		threadCases = []int{250}
	}
	for _, threads := range threadCases {
		row := []string{di(threads)}
		settled := ""
		for _, p := range []string{"graf", "hpa", "firm"} {
			o := runSurgeCompare(tr, p, 50, threads, 60, s.SurgeS, int64(61+threads))
			row = append(row, f0(o.converge))
			if settled != "" {
				settled += "/"
			}
			settled += ms(o.settleP99)
		}
		row = append(row, settled)
		res.AddRow(row...)
	}
	res.Note("paper: GRAF 100/170s vs K8s 260/230s vs FIRM 205/205s — up to 2.6x faster")
	res.Note("convergence is relative to each policy's own settled tail; the settled_p99 column exposes a policy that 'converges' fast to a bad steady state")
	return res
}
