package core

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// hyperbola is an analytic latency oracle L(w,r) = Σᵢ aᵢ·wᵢ/rᵢ + c with an
// exact gradient and a closed-form constrained optimum, used to validate
// the solver independently of GNN training quality.
type hyperbola struct {
	a []float64 // seconds·millicore per (req/s)
	c float64
}

func (h hyperbola) Predict(load, quota []float64) float64 {
	sum := h.c
	for i := range quota {
		sum += h.a[i] * load[i] / quota[i]
	}
	return sum
}

func (h hyperbola) PredictGrad(load, quota []float64) (float64, []float64) {
	g := make([]float64, len(quota))
	for i := range quota {
		g[i] = -h.a[i] * load[i] / (quota[i] * quota[i])
	}
	return h.Predict(load, quota), g
}

func TestAnalyzerFallbackMatchesGroundTruth(t *testing.T) {
	a := app.OnlineBoutique()
	an := NewAnalyzer(a)
	rates := map[string]float64{"cart": 10, "home": 5}
	load := an.DistributeMap(rates)
	want := a.PerServiceRate(rates)
	for svc, w := range want {
		if math.Abs(load[svc]-w) > 1e-9 {
			t.Errorf("%s: load %v, want %v", svc, load[svc], w)
		}
	}
}

func TestAnalyzerLearnsFromTraces(t *testing.T) {
	a := app.OnlineBoutique()
	eng := sim.NewEngine(3)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	for i := 0; i < 50; i++ {
		at := float64(i)
		eng.At(at, func() { cl.Submit("cart", nil) })
	}
	eng.Run()
	an := NewAnalyzer(a)
	an.Refresh(cl.Traces())
	load := an.DistributeMap(map[string]float64{"cart": 10})
	// Traced multiplicities must reproduce Count: 2 on currency.
	if math.Abs(load["currency"]-20) > 1e-9 {
		t.Errorf("traced currency load = %v, want 20", load["currency"])
	}
	if math.Abs(load["frontend"]-10) > 1e-9 {
		t.Errorf("frontend load = %v, want 10", load["frontend"])
	}
}

func TestReduceSearchSpace(t *testing.T) {
	a := app.OnlineBoutique()
	m := NewAnalyticMeasurer(a, 0, 1) // exact measurements for determinism
	sc := NewSampleCollector(a, m, 0.150, 50)
	b := sc.ReduceSearchSpace()
	for i, name := range a.ServiceNames() {
		if b.Lo[i] >= b.Hi[i] {
			t.Errorf("%s: Lo %v >= Hi %v", name, b.Lo[i], b.Hi[i])
		}
		if b.Lo[i] < sc.MinQuota || b.Hi[i] > sc.HighQuota {
			t.Errorf("%s: bounds [%v,%v] outside sweep range", name, b.Lo[i], b.Hi[i])
		}
	}
	ratio := sc.VolumeRatio(b)
	if ratio <= 0 || ratio >= 1 {
		t.Errorf("volume ratio = %v, want in (0,1)", ratio)
	}
	// The paper reports ~2.7e-4 for Online Boutique; we only require a
	// substantial reduction.
	if ratio > 0.05 {
		t.Errorf("volume ratio %v: search space barely reduced", ratio)
	}
}

func TestCollectSamplesWithinBounds(t *testing.T) {
	a := app.RobotShop()
	m := NewAnalyticMeasurer(a, 0.05, 2)
	sc := NewSampleCollector(a, m, 0.2, 40)
	b := sc.ReduceSearchSpace()
	samples := sc.Collect(50, 20, 60, b)
	if len(samples) != 50 {
		t.Fatalf("collected %d samples, want 50", len(samples))
	}
	for _, s := range samples {
		if s.Latency <= 0 {
			t.Fatal("non-positive label")
		}
		for i := range s.Quota {
			if s.Quota[i] < b.Lo[i]-1e-9 || s.Quota[i] > b.Hi[i]+1e-9 {
				t.Fatalf("quota %v outside bounds [%v,%v]", s.Quota[i], b.Lo[i], b.Hi[i])
			}
		}
		if s.Load[0] <= 0 {
			t.Fatal("zero load recorded")
		}
	}
}

func TestSimMeasurerAgreesWithAnalytic(t *testing.T) {
	a := app.RobotShop()
	simM := NewSimMeasurer(a, 3)
	anaM := NewAnalyticMeasurer(a, 0, 4)
	quotas := map[string]float64{"web": 1000, "catalogue": 1500}
	s := simM.MeasureE2E(quotas, 40)
	an := anaM.MeasureE2E(quotas, 40)
	if s <= 0 || an <= 0 {
		t.Fatalf("degenerate measurements: sim=%v analytic=%v", s, an)
	}
	if r := s / an; r < 0.3 || r > 3 {
		t.Errorf("sim p99 %v vs analytic %v: ratio %v outside [0.3,3]", s, an, r)
	}
}

// A simulator measurement keeps only the signal it reads: an end-to-end one
// holds no per-call self-latency, a self-latency one no end-to-end window.
func TestSimMeasurerKeepsOnlyWhatItReads(t *testing.T) {
	m := NewSimMeasurer(app.RobotShop(), 3)
	quotas := map[string]float64{"web": 1000, "catalogue": 1500}
	for _, c := range []struct {
		reads, other cluster.Signal
	}{{cluster.E2ELatency, cluster.SelfLatency}, {cluster.SelfLatency, cluster.E2ELatency}} {
		cl := m.run(c.reads, quotas, 40)
		if kept, dropped := cl.Retained(c.reads), cl.Retained(c.other); kept == 0 || dropped != 0 {
			t.Errorf("measurement reading signal %v retained %d of it and %d of signal %v, want > 0 and 0", c.reads, kept, dropped, c.other)
		}
	}
}

// calibrateSerial is calibrate as a serial loop, one simulator run after the
// other on one SimMeasurer: the oracle for its batched, parallel schedule.
func calibrateSerial(a *app.App, b Bounds, rateLo, rateHi, maxLat float64, probes int, seed int64) (xs, ys []float64) {
	ana := NewAnalyticMeasurer(a, 0, seed)
	simm := NewSimMeasurer(a, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	names := a.ServiceNames()
	for p := 0; p < probes*5 && len(xs) < probes; p++ {
		quotas := map[string]float64{}
		for i, s := range names {
			quotas[s] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
		}
		rate := rateLo + rng.Float64()*(rateHi-rateLo)
		av := ana.MeasureE2E(quotas, rate)
		sv := simm.MeasureE2E(quotas, rate)
		if av <= 0 || sv <= 0 || av > maxLat || sv > maxLat {
			continue
		}
		xs = append(xs, math.Log(av))
		ys = append(ys, math.Log(sv))
	}
	return xs, ys
}

// calibrate's parallel probes fit what the serial loop fits, to the bit,
// whether every probe is kept (one batch), some are discarded (several
// batches) or too few survive 5·probes attempts.
func TestCalibrateMatchesSerialLoop(t *testing.T) {
	a := app.RobotShop()
	sc := NewSampleCollector(a, NewAnalyticMeasurer(a, 0, 1), 0.2, 60)
	b := sc.ReduceSearchSpace()
	// Serially these keep 6 of 6, 5 of 30 and 1 of 30 attempts.
	for _, c := range []struct{ rateHi, maxLat float64 }{{100, 1}, {100, 0.25}, {200, 0.25}} {
		xs, ys := calibrateSerial(a, b, 20, c.rateHi, c.maxLat, 6, 9)
		want := calibration{A: 0, B: 1}
		if len(xs) >= 4 {
			want = fitLogLinear(xs, ys)
		}
		got := calibrate(a, b, 20, c.rateHi, c.maxLat, 6, 9)
		if math.Float64bits(got.A) != math.Float64bits(want.A) || math.Float64bits(got.B) != math.Float64bits(want.B) {
			t.Errorf("%+v (%d probes kept serially): Calibrate %+v, serial loop %+v", c, len(xs), got, want)
		}
	}
}

func TestSolveReachesClosedFormOptimum(t *testing.T) {
	// minimize Σr s.t. Σ aᵢwᵢ/rᵢ ≤ SLO → rᵢ* = √(aᵢwᵢ)·Σⱼ√(aⱼwⱼ)/SLO.
	h := hyperbola{a: []float64{20, 5, 45}} // seconds·mc per rps
	load := []float64{1, 1, 1}
	slo := 0.150
	sumSqrt := 0.0
	for i := range h.a {
		sumSqrt += math.Sqrt(h.a[i] * load[i])
	}
	want := make([]float64, 3)
	for i := range want {
		want[i] = math.Sqrt(h.a[i]*load[i]) * sumSqrt / slo
	}
	lo := []float64{50, 50, 50}
	hi := []float64{5000, 5000, 5000}
	sol := Solve(h, load, slo, lo, hi, DefaultSolverConfig())
	for i := range want {
		rel := math.Abs(sol.Quotas[i]-want[i]) / want[i]
		if rel > 0.03 {
			t.Errorf("quota[%d] = %v, closed-form optimum %v (rel err %.3f)", i, sol.Quotas[i], want[i], rel)
		}
	}
	if sol.Predicted > slo {
		t.Errorf("solution violates SLO: predicted %v > %v", sol.Predicted, slo)
	}
	if !sol.Converged || sol.Iterations > 100 {
		t.Errorf("converged=%v after %d model calls, want convergence in under 100", sol.Converged, sol.Iterations)
	}
}

func TestSolveRespectsBounds(t *testing.T) {
	h := hyperbola{a: []float64{10, 10}}
	load := []float64{1, 1}
	lo := []float64{400, 400}
	hi := []float64{800, 800}
	sol := Solve(h, load, 0.001 /*impossible SLO*/, lo, hi, DefaultSolverConfig())
	for i := range sol.Quotas {
		if sol.Quotas[i] < lo[i]-1e-9 || sol.Quotas[i] > hi[i]+1e-9 {
			t.Errorf("quota[%d] = %v escaped [%v,%v]", i, sol.Quotas[i], lo[i], hi[i])
		}
	}
	// Impossible SLO drives quotas to the upper bound.
	if sol.Quotas[0] < hi[0]*0.98 {
		t.Errorf("impossible SLO should saturate upper bound, got %v", sol.Quotas[0])
	}
}

func TestSolveLooseSLOHitsLowerBound(t *testing.T) {
	h := hyperbola{a: []float64{10, 10}}
	load := []float64{1, 1}
	lo := []float64{100, 100}
	hi := []float64{3000, 3000}
	sol := Solve(h, load, 10 /*trivially loose*/, lo, hi, DefaultSolverConfig())
	for i := range sol.Quotas {
		if sol.Quotas[i] > lo[i]*1.2 {
			t.Errorf("loose SLO should drive quota[%d] to lower bound, got %v", i, sol.Quotas[i])
		}
	}
}

func TestLossAt(t *testing.T) {
	h := hyperbola{a: []float64{10}}
	load := []float64{1}
	// No violation: loss = Σ r/1000.
	if got := LossAt(h, load, []float64{1000}, 1, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("LossAt without violation = %v, want 1", got)
	}
	// With violation the penalty dominates.
	loose := LossAt(h, load, []float64{1000}, 0.001, 100)
	if loose <= 1 {
		t.Errorf("violating LossAt = %v, want > 1", loose)
	}
}

func TestControllerReactsToSurge(t *testing.T) {
	a := app.OnlineBoutique()
	eng := sim.NewEngine(9)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	// Oracle: per-node latency contribution grows with load; forces quota
	// to scale with workload.
	h := hyperbola{a: []float64{2, 2, 2, 2, 2, 2}, c: 0.01}
	an := NewAnalyzer(a)
	b := Bounds{
		Lo: []float64{100, 100, 100, 100, 100, 100},
		Hi: []float64{6000, 6000, 6000, 6000, 6000, 6000},
	}
	cfg := DefaultControllerConfig(0.150)
	ctl := NewController(cl, h, an, b, cfg)
	ctl.Start()

	gen := workload.NewOpenLoop(cl, workload.StepRate(20, 200, 120))
	gen.Start()
	eng.RunUntil(115)
	preQuota := cl.TotalQuota()
	preSolves := ctl.Solves()
	eng.RunUntil(140) // a few control intervals after the surge
	postQuota := cl.TotalQuota()
	gen.Stop()
	ctl.Stop()
	eng.RunUntil(200)

	if ctl.Solves() <= preSolves {
		t.Error("controller did not re-solve after the surge")
	}
	if postQuota < preQuota*2 {
		t.Errorf("total quota %v → %v: controller did not scale up proactively", preQuota, postQuota)
	}
}

func TestControllerHysteresisSkipsStableLoad(t *testing.T) {
	a := app.RobotShop()
	eng := sim.NewEngine(10)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	h := hyperbola{a: []float64{2, 2}, c: 0.01}
	an := NewAnalyzer(a)
	b := Bounds{Lo: []float64{100, 100}, Hi: []float64{4000, 4000}}
	ctl := NewController(cl, h, an, b, DefaultControllerConfig(0.2))
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(300)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	// ~60 ticks at 5s interval; hysteresis should have suppressed most.
	if ctl.Solves() > 20 {
		t.Errorf("solver ran %d times on stable load; hysteresis ineffective", ctl.Solves())
	}
	if ctl.Solves() == 0 {
		t.Error("solver never ran")
	}
}

// A decision that keeps the configuration allocates nothing. The tick, the
// controller's rate map, the record's encoding, the copy of its rates the
// flight recorder keeps (in the map of the record it evicts) and the untraced
// stage spans' names and attributes must all cost nothing.
func TestHysteresisStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	a := app.RobotShop()
	eng := sim.NewEngine(10)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	b := Bounds{Lo: []float64{100, 100}, Hi: []float64{4000, 4000}}
	ctl := NewController(cl, hyperbola{a: []float64{2, 2}, c: 0.01}, NewAnalyzer(a), b, DefaultControllerConfig(0.2))
	tel := obs.New(obs.Options{AuditW: io.Discard, AuditMemory: 16})
	ctl.Obs = obs.NewControllerObs(tel)
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(120)
	ctl.Stop()
	for i := 0; i < 20; i++ { // fill the audit memory and every metric child
		ctl.Step()
	}
	allocs := testing.AllocsPerRun(50, ctl.Step)
	for _, rec := range tel.Flight.Records() {
		if rec.Type == "decision" && rec.Kind != kindHysteresis {
			t.Fatalf("decision at %v is %q, want every measured step to hold by hysteresis", rec.At, rec.Kind)
		}
	}
	if allocs > 0 {
		t.Errorf("%v allocations per hysteresis-hold Step, want 0", allocs)
	}
	gen.Stop()
}

// ownGradHyperbola is hyperbola with fleet.TenantPredictor's calling
// convention: PredictGrad returns the model's own buffer, which its next call
// overwrites.
type ownGradHyperbola struct {
	hyperbola
	g []float64
}

func (h *ownGradHyperbola) PredictGrad(load, quota []float64) (float64, []float64) {
	for i := range quota {
		h.g[i] = -h.a[i] * load[i] / (quota[i] * quota[i])
	}
	return h.Predict(load, quota), h.g
}

// A decision that solves allocates nothing either: the analyzer's profiles
// and load, the solver box, the solver's workspace, the proposed quotas, the
// state's copies of them, the cluster's actuation order and the flight
// recorder's copies of the record's vectors and maps are all refilled in
// place. The offered rate is a square wave of period 20 s, so the 10 s rate
// window reads about 60, 75, 90, 75, 60, … req/s at 5 s steps — past
// hysteresis every time. The engine runs between steps, outside the
// measurement.
func TestSolvingStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	a := app.RobotShop()
	eng := sim.NewEngine(10)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	b := Bounds{Lo: []float64{100, 100}, Hi: []float64{4000, 4000}}
	// Pessimistic enough, against an SLO loose enough, that the measured
	// tail never engages the boost guardrail once warm.
	m := &ownGradHyperbola{hyperbola: hyperbola{a: []float64{4, 4}, c: 0.01}, g: make([]float64, 2)}
	ctl := NewController(cl, m, NewAnalyzer(a), b, DefaultControllerConfig(0.3))
	tel := obs.New(obs.Options{AuditW: io.Discard, AuditMemory: 16})
	ctl.Obs = obs.NewControllerObs(tel)
	gen := workload.NewOpenLoop(cl, func(now float64) float64 {
		if int(now/10)%2 == 0 {
			return 60
		}
		return 90
	})
	gen.Start()
	defer gen.Stop()
	step := func() uint64 {
		var before, after runtime.MemStats
		eng.RunUntil(eng.Now() + IntervalS)
		runtime.ReadMemStats(&before)
		ctl.Step()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 40; i++ { // fill the audit memory, every metric child and the instance counts
		step()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs uint64
	const steps = 16
	for i := 0; i < steps; i++ {
		allocs += step()
	}
	recs := tel.Flight.Records()
	for _, rec := range recs[len(recs)-steps:] {
		if rec.Type != "decision" || rec.Kind != kindSolve {
			t.Fatalf("record at %v is a %s %q, want every measured step to solve", rec.At, rec.Type, rec.Kind)
		}
	}
	if allocs > 0 {
		t.Errorf("%v allocations per solving Step, want 0", float64(allocs)/steps)
	}
}

func TestControllerWorkloadScaling(t *testing.T) {
	a := app.RobotShop()
	eng := sim.NewEngine(11)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	h := hyperbola{a: []float64{2, 2}, c: 0.005}
	an := NewAnalyzer(a)
	b := Bounds{Lo: []float64{100, 100}, Hi: []float64{3000, 3000}}
	// This test checks the scaling arithmetic only: use the paper-exact
	// configuration so no guardrail (boost, breaker, step limiter) can
	// reshape the applied quotas.
	cfg := VanillaControllerConfig(0.1)
	cfg.TrainedMaxRate = 50
	cfg.ViolationBoost = 1
	ctl := NewController(cl, h, an, b, cfg)
	var solvedTotal float64
	ctl.OnDecision = func(tm, total float64, sol Solution) { solvedTotal = sol.TotalQuota }
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(150)) // 3× trained max
	gen.Start()
	eng.RunUntil(60)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if solvedTotal == 0 {
		t.Fatal("no decision observed")
	}
	applied := cl.TotalQuota()
	ratio := applied / solvedTotal
	if ratio < 2 || ratio > 4 {
		t.Errorf("applied/solved quota ratio %v, want ≈3 (workload scaling)", ratio)
	}
}
