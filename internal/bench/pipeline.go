package bench

import (
	"math"
	"sync"

	"graf/internal/app"
	"graf/internal/core"
)

// Trained bundles everything the end-to-end experiments need: the
// application, the spec it was trained to, and core.Train's bounds, samples
// and latency model.
type Trained struct {
	core.Trained
	App  *app.App
	Spec core.TrainSpec
}

// figureSpec is the offline recipe at a figure's scale. The paper trains at
// 2e-4 for 7e4 iterations; at reduced iteration budgets a proportionally
// larger LR reaches the same loss region.
func figureSpec(slo, rateLo, rateHi float64, s Scale, seed int64) core.TrainSpec {
	return core.TrainSpec{
		SLO: slo, MinRate: rateLo, MaxRate: rateHi,
		Samples: s.Samples, Iterations: s.Iterations, Batch: s.Batch,
		LR:                math.Min(2e-4*math.Sqrt(70000/float64(s.Iterations)), 5e-3),
		CalibrationProbes: s.CalibrationProbes,
		Seed:              seed,
	}
}

// Shared pipelines are expensive; memoize per (app, spec) within a process
// so e.g. Fig 14/15/17 reuse one trained model, exactly as the paper reuses
// one trained model for every result ("the trained model is then used to
// reproduce every result in the evaluation without retraining").
type pipeKey struct {
	app  string
	spec core.TrainSpec
}

var (
	pipeMu   sync.Mutex
	pipeMemo = map[pipeKey]*Trained{}
)

// SharedPipeline returns the memoized core.Train of a to spec.
func SharedPipeline(a *app.App, spec core.TrainSpec) *Trained {
	key := pipeKey{a.Name, spec}
	pipeMu.Lock()
	defer pipeMu.Unlock()
	if t, ok := pipeMemo[key]; ok {
		return t
	}
	t := &Trained{Trained: core.Train(a, spec), App: a, Spec: spec}
	pipeMemo[key] = t
	return t
}

// BoutiquePipeline is the default Online Boutique pipeline used across the
// end-to-end experiments. The workload range keeps every service needing
// multiple instances, the regime where allocation quality matters (below
// one instance per service, every allocator sits at the same floor).
func BoutiquePipeline(scale Scale) *Trained {
	return SharedPipeline(app.OnlineBoutique(), figureSpec(0.250, 40, 420, scale, 1))
}

// SocialPipeline is the Social Network pipeline (Fig 14/16).
func SocialPipeline(scale Scale) *Trained {
	return SharedPipeline(app.SocialNetwork(), figureSpec(0.150, 40, 420, scale, 2))
}

// EvalRate is the steady-state workload the Fig 14/15/16 comparisons run
// at: high enough that every microservice needs several instances.
const EvalRate = 240
