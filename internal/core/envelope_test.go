package core

import (
	"math"
	"math/rand"
	"testing"

	"graf/internal/app"
	"graf/internal/workload"
)

// randomQuotas draws a quota map over an app's services in [lo, hi).
func randomQuotas(a *app.App, rng *rand.Rand, lo, hi float64) map[string]float64 {
	out := make(map[string]float64, len(a.Services))
	for _, name := range a.ServiceNames() {
		out[name] = lo + rng.Float64()*(hi-lo)
	}
	return out
}

// TestEnvelopeClampProperties checks the probation envelope's contract over
// random applications and seeds: every clamped step stays within the
// per-tick multiplicative bound and never dips below envelopeMinQuota.
func TestEnvelopeClampProperties(t *testing.T) {
	apps := []*app.App{
		app.OnlineBoutique(), app.SocialNetwork(), app.RobotShop(),
		app.Bookinfo(), app.SyntheticChain(4), app.SyntheticChain(9),
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := apps[rng.Intn(len(apps))]
		last := randomQuotas(a, rng, 10, 4000)
		proposed := randomQuotas(a, rng, 1, 8000)
		// Random membership holes: services the last configuration never
		// touched must still get the envelopeMinQuota floor.
		for k := range last {
			if rng.Float64() < 0.15 {
				delete(last, k)
			}
		}
		got, _ := envelopeClamp(proposed, last)
		if len(got) != len(proposed) {
			t.Fatalf("seed %d: clamp dropped services: %d != %d", seed, len(got), len(proposed))
		}
		for k, v := range got {
			if v < envelopeMinQuota-1e-9 {
				t.Errorf("seed %d: %s clamped to %v below envelopeMinQuota %v", seed, k, v, envelopeMinQuota)
			}
			old, ok := last[k]
			if !ok || old <= 0 {
				continue
			}
			hi := math.Max(old*envelopeStepUp, envelopeMinQuota)
			lo := math.Min(old*envelopeStepDown, math.Max(proposed[k], envelopeMinQuota))
			if v > hi+1e-9 {
				t.Errorf("seed %d: %s step %v -> %v exceeds up-bound %v", seed, k, old, v, hi)
			}
			if v < lo-1e-9 {
				t.Errorf("seed %d: %s step %v -> %v below down-bound %v", seed, k, old, v, lo)
			}
		}
	}
}

// TestEnvelopeClampConverges iterates the clamp against a fixed target: the
// sequence must reach the unclamped solution in finitely many steps — which
// is what guarantees a model coming off probation converges to the same
// configuration it would have applied unconstrained.
func TestEnvelopeClampConverges(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := app.SyntheticChain(3 + rng.Intn(8))
		target := randomQuotas(a, rng, 60, 6000)
		cur := randomQuotas(a, rng, 60, 6000)
		converged := false
		for i := 0; i < 64; i++ {
			next, clamped := envelopeClamp(target, cur)
			cur = next
			if !clamped {
				converged = true
				break
			}
		}
		if !converged {
			t.Fatalf("seed %d: clamp did not converge to the target in 64 steps", seed)
		}
		for k, v := range cur {
			if v != target[k] {
				t.Errorf("seed %d: %s converged to %v, want %v", seed, k, v, target[k])
			}
		}
	}
}

// TestEnvelopeIdentityWhenTrusted: a trusted model bypasses the envelope
// entirely — the controller only clamps in ModelProbation — and a proposal
// already inside the envelope passes the clamp unchanged.
func TestEnvelopeIdentityWhenTrusted(t *testing.T) {
	// The trust walk's surge, which the envelope clamps on probation.
	clamped := func(trust ModelTrust) int {
		cfg := DefaultControllerConfig(0.150)
		cfg.Hysteresis = 0
		sc := scenario{seed: 9, cfg: cfg, rate: workload.StepRate(40, 300, 165), until: 300,
			script: func(r *scriptRig) { r.ctl.SetTrust(trust) }}
		_, st := sc.run(t)
		return st.Stats.EnvelopeClamped
	}
	if n := clamped(ModelTrusted); n != 0 {
		t.Errorf("a trusted model's configuration was enveloped %d times", n)
	}
	if n := clamped(ModelProbation); n == 0 {
		t.Error("the surge never reached the envelope on probation: the trusted run proves nothing")
	}

	rng := rand.New(rand.NewSource(7))
	last := randomQuotas(app.OnlineBoutique(), rng, 100, 4000)
	proposed := make(map[string]float64, len(last))
	for k, old := range last {
		proposed[k] = old * (envelopeStepDown + rng.Float64()*(envelopeStepUp-envelopeStepDown))
	}
	got, clampedAny := envelopeClamp(proposed, last)
	if clampedAny {
		t.Error("a proposal inside the envelope was reported clamped")
	}
	for k, v := range got {
		if v != proposed[k] {
			t.Errorf("inside the envelope, %s changed: %v != %v", k, v, proposed[k])
		}
	}
}
