package bench

import (
	"fmt"

	"graf/internal/app"
	"graf/internal/autoscale"
	"graf/internal/cluster"
	"graf/internal/metrics"
	"graf/internal/sim"
	"graf/internal/workload"
)

// fig01InstanceCreation reproduces Figure 1: the time to create 1, 2, 4, 8
// and 16 microservice instances at once.
func fig01InstanceCreation(Scale) Result {
	res := Result{Title: "Time to create microservice instances (batch)",
		Header: []string{"batch", "time_to_ready_s", "paper_s"}}
	paper := map[int]float64{1: 5.5, 2: 8.7, 4: 12.5, 8: 23.6, 16: 45.6}
	for _, k := range []int{1, 2, 4, 8, 16} {
		eng := sim.NewEngine(1)
		cl := newCluster(eng, app.RobotShop())
		d := cl.Deployment("web")
		t0 := eng.Now()
		d.SetReplicas(1 + k)
		for d.ReadyReplicas() < 1+k {
			if !eng.Step() {
				break
			}
		}
		got := eng.Now() - t0
		res.AddRow(di(k), f1(got), f1(paper[k]))
		if got < paper[k]*0.7 || got > paper[k]*1.3 {
			res.Fail("batch %d: %.1f s to ready, paper %.1f s (more than 30%% off)", k, got, paper[k])
		}
	}
	res.Note("startup model: ready_j = %.1f + %.2f·j seconds, fit to the paper's Figure 1", cluster.DefaultConfig().StartupBaseS, cluster.DefaultConfig().StartupSlopeS)
	return res
}

// surgeVariant labels one allocation policy in the Fig 2/3/7 study.
type surgeVariant struct {
	name  string
	setup func(cl *cluster.Cluster, eng *sim.Engine, surgeAt float64)
}

// surgeOut is one policy's outcome in the surge study.
type surgeOut struct {
	name          string
	instances     *metrics.Series
	p90, p95, p99 float64
	perception    map[string]float64 // time service first sees ≥80% of its steady post-surge rate
	peakInstances int
}

// runSurge drives the Online Boutique cart-page surge of §2.1: a small base
// load, then a step to surgeRate qps at surgeAt, observed for horizonS.
func runSurge(variant surgeVariant, baseRate, surgeRate, surgeAt, horizonS float64, seed int64) surgeOut {
	eng := sim.NewEngine(seed)
	a := app.OnlineBoutique()
	cl := newCluster(eng, a)
	variant.setup(cl, eng, surgeAt)

	gen := workload.NewOpenLoop(cl, workload.StepRate(baseRate, surgeRate, surgeAt))
	gen.API = "cart"
	gen.Start()

	out := surgeOut{name: variant.name, instances: new(metrics.Series), perception: map[string]float64{}}
	stopSample := eng.Ticker(0.5, 2, func() {
		n := cl.TotalInstances()
		out.instances.Add(eng.Now(), float64(n))
		if n > out.peakInstances {
			out.peakInstances = n
		}
	})
	end := surgeAt + horizonS
	eng.RunUntil(end)
	stopSample()
	gen.Stop()
	eng.RunUntil(end + 60)

	// Tail latencies over the post-surge horizon (Fig 3).
	e2e := cl.E2EWindow()
	out.p90, out.p95, out.p99 = e2e.Quantile(0.90, surgeAt, end), e2e.Quantile(0.95, surgeAt, end), e2e.Quantile(0.99, surgeAt, end)

	// Perception times (Fig 7): first time each service's 5-second arrival
	// rate reaches 80% of its steady post-surge rate.
	steady := a.PerServiceRate(map[string]float64{"cart": surgeRate})
	for _, name := range a.ServiceNames() {
		d := cl.Deployment(name)
		for t := surgeAt; t <= end; t += 1 {
			if d.ArrivalRateAt(t, 5) >= 0.8*steady[name] {
				out.perception[name] = t - surgeAt
				break
			}
		}
		if _, ok := out.perception[name]; !ok {
			out.perception[name] = horizonS // never reached within horizon
		}
	}
	return out
}

func surgeVariants() []surgeVariant {
	mk := func(th float64) surgeVariant {
		return surgeVariant{
			name: fmt.Sprintf("K8s Autoscaler(%d%%)", int(th*100)),
			setup: func(cl *cluster.Cluster, eng *sim.Engine, _ float64) {
				h := autoscale.NewHPA(cl, th)
				h.Start()
			},
		}
	}
	proactive := surgeVariant{
		name: "Proactive",
		setup: func(cl *cluster.Cluster, eng *sim.Engine, surgeAt float64) {
			// §2.1's opportunity: create the instances for every
			// microservice in the chain at once, the moment the surge hits.
			eng.At(surgeAt, func() {
				autoscale.ProvisionProactiveRates(cl, map[string]float64{"cart": 300}, 0.55)
			})
		},
	}
	return []surgeVariant{proactive, mk(0.10), mk(0.25), mk(0.50)}
}

// fig02SurgeInstances reproduces Figure 2: total instances over time under
// the cart-page surge for Proactive vs K8s autoscaler at 10/25/50%.
func fig02SurgeInstances(s Scale) Result {
	res := Result{Title: "Total instances during traffic surge (300 qps cart)",
		Header: []string{"t_s", "Proactive", "HPA(10%)", "HPA(25%)", "HPA(50%)"}}
	var outs []surgeOut
	for _, v := range surgeVariants() {
		outs = append(outs, runSurge(v, 5, 300, 60, s.SurgeS, 7))
	}
	for t := 0.0; t <= 60+s.SurgeS; t += 20 {
		row := []string{f0(t)}
		for _, o := range outs {
			row = append(row, f0(o.instances.At(t)))
		}
		res.AddRow(row...)
	}
	pro, h10, h25, h50 := outs[0].peakInstances, outs[1].peakInstances, outs[2].peakInstances, outs[3].peakInstances
	res.AddRow("peak", di(pro), di(h10), di(h25), di(h50))
	if !(h10 > h25 && h25 > h50 && h50 > pro) {
		res.Fail("peak instances Proactive %d, HPA(10%%) %d, HPA(25%%) %d, HPA(50%%) %d: want HPA(10%%) > HPA(25%%) > HPA(50%%) > Proactive", pro, h10, h25, h50)
	}
	if h10 < 4*pro {
		res.Fail("HPA(10%%) peak %d under 4x Proactive's %d (paper: 6.6x)", h10, pro)
	}
	res.Note("paper: 10%% threshold reaches ~258 instances vs ~39 proactive (6.6x); shape target: HPA(10%%) ≫ HPA(25%%) > HPA(50%%) > Proactive")
	return res
}

// fig03SurgeLatency reproduces Figure 3: p90/p95/p99 end-to-end latency
// during the surge for the same four policies.
func fig03SurgeLatency(s Scale) Result {
	res := Result{Title: "End-to-end latency during traffic surge (seconds)",
		Header: []string{"percentile", "Proactive", "HPA(10%)", "HPA(25%)", "HPA(50%)"}}
	var outs []surgeOut
	for _, v := range surgeVariants() {
		outs = append(outs, runSurge(v, 5, 300, 60, s.SurgeS, 7))
	}
	get := func(f func(surgeOut) float64) []string {
		row := make([]string, 0, 4)
		for _, o := range outs {
			row = append(row, f2(f(o)))
		}
		return row
	}
	res.AddRow(append([]string{"90%-tile"}, get(func(o surgeOut) float64 { return o.p90 })...)...)
	res.AddRow(append([]string{"95%-tile"}, get(func(o surgeOut) float64 { return o.p95 })...)...)
	res.AddRow(append([]string{"99%-tile"}, get(func(o surgeOut) float64 { return o.p99 })...)...)
	for _, o := range outs[1:] {
		if o.p99 <= outs[0].p99 {
			res.Fail("%s p99 %.2f s not above Proactive's %.2f s", o.name, o.p99, outs[0].p99)
		}
	}
	res.Note("paper: proactive p99 2.0s vs 17.2/22.6/27.8s for HPA 10/25/50%%; shape target: Proactive ≪ all HPA settings, HPA worsens as threshold rises")
	return res
}

// fig07CascadingEffect reproduces Figure 7: when each microservice in the
// cart chain first perceives the surged workload — sequential under the K8s
// autoscaler, simultaneous under proactive allocation.
func fig07CascadingEffect(s Scale) Result {
	res := Result{Title: "Time (s after surge) until each microservice perceives peak workload",
		Header: []string{"service", "K8s Autoscaler", "Proactive"}}
	vs := surgeVariants()
	hpa := runSurge(vs[1], 5, 300, 60, s.SurgeS, 7) // HPA(10%)
	proactive := runSurge(vs[0], 5, 300, 60, s.SurgeS, 7)
	names := app.OnlineBoutique().ServiceNames()
	deepest := 0.0
	for _, name := range names {
		h, p := hpa.perception[name], proactive.perception[name]
		res.AddRow(name, f0(h), f0(p))
		if p > h {
			res.Fail("%s: Proactive perceives the surge at %.0f s, after HPA's %.0f s", name, p, h)
		}
		deepest = max(deepest, h)
	}
	if front := hpa.perception[names[0]]; deepest <= front {
		res.Fail("no cascade under HPA: no service perceives the surge after %s (%.0f s)", names[0], front)
	}
	res.Note("paper: frontend peaks at 31s, cart 118s, deepest 155s under HPA; all ≈58s under proactive")
	return res
}

// fig06LatencyCurves reproduces Figure 6: per-microservice median latency
// versus CPU quota for Robot Shop's Web and Catalogue, swept vertically on
// a single instance.
func fig06LatencyCurves(Scale) Result {
	res := Result{Title: "Robot Shop: 50%-tile latency vs CPU quota (ms)",
		Header: []string{"quota_mc", "web_ms", "catalogue_ms"}}
	cfg := cluster.DefaultConfig()
	cfg.CPUUnit = 2000 // vertical scaling: one instance across the sweep
	cfg.StartupBaseS, cfg.StartupSlopeS = 0, 0
	var web, cat, web200, cat200 float64
	for quota := 100.0; quota <= 1500; quota += 100 {
		eng := sim.NewEngine(int64(quota))
		cl := cluster.New(eng, app.RobotShop(), cfg)
		cl.ApplyQuotas(map[string]float64{"web": quota, "catalogue": quota})
		g := workload.NewOpenLoop(cl, workload.ConstRate(25))
		g.Start()
		eng.RunUntil(40)
		g.Stop()
		web = cl.Deployment("web").SelfLatencyQuantile(0.5, 30)
		cat = cl.Deployment("catalogue").SelfLatencyQuantile(0.5, 30)
		res.AddRow(f0(quota), ms(web), ms(cat))
		if cat <= web {
			res.Fail("quota %.0f mc: catalogue %s ms not above web %s ms", quota, ms(cat), ms(web))
		}
		if quota == 200 {
			web200, cat200 = web, cat
		}
	}
	if web >= web200 || cat >= cat200 {
		res.Fail("latency did not fall from 200 to 1500 mc: web %s → %s ms, catalogue %s → %s ms", ms(web200), ms(web), ms(cat200), ms(cat))
	}
	res.Note("shape target: both curves monotone decreasing and convex; catalogue strictly above web (sharper curve, §2.2)")
	return res
}
