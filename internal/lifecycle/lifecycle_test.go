package lifecycle

import (
	"math"
	"math/rand"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/queueing"
	"graf/internal/sim"
)

// --- Drift monitor ----------------------------------------------------------

func TestMonitorWarmupAndTrip(t *testing.T) {
	m := &monitor{}
	// Large residuals before warmup must not trip.
	for i := 0; i < warmup-1; i++ {
		m.Observe(0.9)
	}
	if m.Tripped() {
		t.Fatal("monitor tripped before warmup")
	}
	// Sustained underestimation keeps accumulating: must trip soon after.
	tripped := false
	for i := 0; i < 20; i++ {
		m.Observe(0.9)
		if m.Tripped() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("monitor never tripped on sustained 90% underestimation")
	}
	m.Reset()
	if m.Tripped() {
		t.Fatal("monitor still tripped after Reset")
	}
}

func TestMonitorIgnoresSmallResiduals(t *testing.T) {
	m := &monitor{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		m.Observe(0.05 * rng.NormFloat64()) // well inside the slack band
		if m.Tripped() {
			t.Fatalf("monitor tripped at tick %d on noise-level residuals", i)
		}
	}
}

func TestMonitorTripsOnOverestimation(t *testing.T) {
	m := &monitor{}
	tripped := false
	for i := 0; i < 40; i++ {
		m.Observe(-0.9) // model predicts far above reality
		if m.Tripped() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("monitor never tripped on sustained overestimation")
	}
}

// --- Promotion gates ---------------------------------------------------------

// synthSamples draws (load, quota) → p99 labels from the analytic queueing
// surface, standing in for live cluster measurements.
func synthSamples(a *app.App, n int, seed int64) []gnn.Sample {
	rng := rand.New(rand.NewSource(seed))
	sz := queueing.DefaultSizing()
	names := a.ServiceNames()
	var out []gnn.Sample
	for len(out) < n {
		total := 20 + rng.Float64()*60
		rates := a.PerServiceRate(a.MixRates(total))
		quotas := map[string]float64{}
		load := make([]float64, len(names))
		quota := make([]float64, len(names))
		for i, s := range names {
			quotas[s] = 200 + rng.Float64()*1800
			load[i] = rates[s]
			quota[i] = quotas[s]
		}
		lat := queueing.WorstAPIQuantile(a, sz, quotas, rates, 0.99)
		if lat > 3 {
			continue
		}
		out = append(out, gnn.Sample{Load: load, Quota: quota, Latency: lat})
	}
	return out
}

// poison corrupts a sample set the way a compromised telemetry pipeline
// would: labels anti-correlated with quota, so a model trained on them
// learns "more CPU ⇒ slower" — exactly what the sanity gates must refuse.
func poison(set []gnn.Sample) []gnn.Sample {
	out := make([]gnn.Sample, len(set))
	for i, s := range set {
		sum := 0.0
		for _, q := range s.Quota {
			sum += q
		}
		out[i] = gnn.Sample{
			Load:    append([]float64(nil), s.Load...),
			Quota:   append([]float64(nil), s.Quota...),
			Latency: 0.01 + sum*1e-4, // grows with quota
		}
	}
	return out
}

func testBounds(n int) core.Bounds {
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 200, 2000
	}
	return core.Bounds{Lo: lo, Hi: hi}
}

func trainIncumbent(t *testing.T, a *app.App, set []gnn.Sample, seed int64) *gnn.Model {
	t.Helper()
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(seed)))
	m.Train(set, gnn.TrainConfig{
		Iterations: 400, Batch: 32, LR: 1e-3,
		ValFrac: 0.2, TestFrac: 0, Seed: seed, EvalEvery: 400,
	})
	return m
}

func TestGateRejectsPoisonedCandidate(t *testing.T) {
	a := app.SyntheticChain(3)
	good := synthSamples(a, 300, 11)
	inc := trainIncumbent(t, a, good, 11)

	cand := inc.Clone()
	cand.Train(poison(good), gnn.TrainConfig{
		Iterations: 400, Batch: 32, LR: 1e-3,
		ValFrac: 0.2, TestFrac: 0, Seed: 12, EvalEvery: 400,
	})

	// Hand the poisoned candidate the best possible shadow score, so the
	// rejection must come from the sanity gates, not the live comparison.
	g := gateCandidate(cand, inc, good, testBounds(len(a.Services)), 0.250,
		0.01, 0.50, shadowTicks)
	if g.Pass {
		t.Fatalf("promotion gate passed a quota-anti-correlated candidate: %s", g.String())
	}
	if len(g.Reasons) == 0 {
		t.Fatal("gate rejected without recording a reason")
	}
}

func TestGateRejectsWorseShadowScore(t *testing.T) {
	a := app.SyntheticChain(3)
	good := synthSamples(a, 300, 21)
	inc := trainIncumbent(t, a, good, 21)
	cand := inc.Clone() // identical surface: zero improvement

	g := gateCandidate(cand, inc, good, testBounds(len(a.Services)), 0.250,
		0.30, 0.30, shadowTicks) // parity, not a win
	if g.Pass {
		t.Fatal("promotion gate passed a candidate with no shadow improvement")
	}
}

func TestGatePassesBetterCandidate(t *testing.T) {
	a := app.SyntheticChain(3)
	good := synthSamples(a, 300, 31)
	// A deliberately under-trained incumbent versus a finished candidate.
	inc := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(31)))
	inc.Train(good, gnn.TrainConfig{
		Iterations: 40, Batch: 32, LR: 1e-3, ValFrac: 0.2, Seed: 31, EvalEvery: 40,
	})
	cand := inc.Clone()
	cand.Train(good, gnn.TrainConfig{
		Iterations: 800, Batch: 32, LR: 1e-3, ValFrac: 0.2, Seed: 32, EvalEvery: 800,
	})

	g := gateCandidate(cand, inc, good, testBounds(len(a.Services)), 0.250,
		0.05, 0.40, shadowTicks)
	if !g.Pass {
		t.Fatalf("promotion gate rejected a strictly better candidate: %v", g.Reasons)
	}
}

// --- Manager state machine ---------------------------------------------------

func testManager(t *testing.T, seed int64) (*Manager, *app.App) {
	t.Helper()
	a := app.SyntheticChain(3)
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	good := synthSamples(a, 120, seed)
	inc := trainIncumbent(t, a, good, seed)
	m := NewManager(cl, inc, testBounds(len(a.Services)), 0.250, Config{})
	m.samples = good[:40]
	return m, a
}

func TestManagerPromoteThenRollback(t *testing.T) {
	m, _ := testManager(t, 41)
	if m.Phase() != PhaseTrusted || m.Generation() != 0 {
		t.Fatalf("fresh manager: phase=%v gen=%d", m.Phase(), m.Generation())
	}

	m.trip()
	if m.Phase() != PhaseDrifted {
		t.Fatalf("after trip: phase=%v", m.Phase())
	}
	if len(m.samples) > driftLookback {
		t.Fatalf("trip kept %d samples; want ≤ lookback %d", len(m.samples), driftLookback)
	}

	// Promote a candidate (bypassing the gates — they have their own tests).
	m.candidate = m.incumbent.Clone()
	m.promote(gateResult{Pass: true})
	if m.Phase() != PhaseProbation || m.Generation() != 1 {
		t.Fatalf("after promote: phase=%v gen=%d", m.Phase(), m.Generation())
	}
	if m.probLeft != probationTicks {
		t.Fatalf("probation window = %d; want %d", m.probLeft, probationTicks)
	}
	if _, ok := m.archive[0]; !ok {
		t.Fatal("promotion dropped the archived generation 0")
	}
	if len(m.Models()) != 2 {
		t.Fatalf("Models() has %d generations; want 2", len(m.Models()))
	}

	m.rollback()
	if m.Phase() != PhaseDrifted || m.Generation() != 0 {
		t.Fatalf("after rollback: phase=%v gen=%d", m.Phase(), m.Generation())
	}
	if m.cooldown != cooldownTicks {
		t.Fatalf("rollback cooldown = %d; want %d", m.cooldown, cooldownTicks)
	}
	trips, promotions, rollbacks, _, _, _ := m.Stats()
	if trips != 1 || promotions != 1 || rollbacks != 1 {
		t.Fatalf("stats = %d trips %d promotions %d rollbacks; want 1/1/1", trips, promotions, rollbacks)
	}
}

// startShadow must train a candidate that predicts finite latencies and
// differs from the incumbent: a zero batch or learning rate once trained a
// candidate of NaNs that the gates then rejected, forever.
func TestStartShadowTrainsFiniteDistinctCandidate(t *testing.T) {
	m, _ := testManager(t, 61)
	m.startShadow(PhaseTrusted)
	if m.Phase() != phaseShadow || m.candidate == nil {
		t.Fatalf("startShadow left phase=%v candidate=%v", m.Phase(), m.candidate)
	}
	s := m.samples[0]
	cand, inc := m.candidate.Predict(s.Load, s.Quota), m.incumbent.Predict(s.Load, s.Quota)
	if math.IsNaN(cand) || math.IsInf(cand, 0) {
		t.Fatalf("candidate predicts %v", cand)
	}
	if cand == inc {
		t.Error("candidate predicts exactly what the incumbent does: it was not retrained")
	}
}
