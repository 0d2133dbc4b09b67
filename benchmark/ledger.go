package main

import (
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"graf"
	"graf/internal/app"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/nn"
	"graf/internal/obs"
)

// taps are the benchmark's outside-in measuring points for the traced
// repetition: a decorator around the latency model, a wrapper around the
// shard's HTTP handler, and the spans read back from the shards' tracers.
// Nothing inside the program is edited; a nil *taps wraps nothing.
type taps struct {
	mu         sync.Mutex
	modelCalls int
	modelBusy  time.Duration
	tickCalls  int
	tickBytes  int64
	shardSpans []obs.TraceSpan
}

// model returns m behind a timing decorator, or m itself when tracing is off.
func (t *taps) model(m *gnn.Model, rec *recorder) core.LatencyModel {
	if t == nil {
		return m
	}
	return &timedModel{m: m, t: t, rec: rec}
}

// timedModel is a core.LatencyModel that times every call the solver makes
// into gnn and records it as a span under the Controller.Step that caused it.
type timedModel struct {
	m   *gnn.Model
	t   *taps
	rec *recorder
}

func (tm *timedModel) note(name string, t0 time.Time) {
	t1 := time.Now()
	tm.rec.leaf(name, t0, t1)
	tm.t.mu.Lock()
	tm.t.modelCalls++
	tm.t.modelBusy += t1.Sub(t0)
	tm.t.mu.Unlock()
}

func (tm *timedModel) Predict(load, quota []float64) float64 {
	defer tm.note("gnn.Predict", time.Now())
	return tm.m.Predict(load, quota)
}

func (tm *timedModel) PredictGrad(load, quota []float64) (float64, []float64) {
	defer tm.note("gnn.PredictGrad", time.Now())
	return tm.m.PredictGrad(load, quota)
}

// handler wraps a shard's handler: every request becomes a span named after
// its path, and /v1/tick requests have their bytes counted in both directions.
func (t *taps) handler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		rec.leaf("shard"+r.URL.Path, t0, time.Now())
		if r.URL.Path == "/v1/tick" {
			t.mu.Lock()
			t.tickCalls++
			t.tickBytes += body.n + cw.n
			t.mu.Unlock()
		}
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// --- micro-loops ------------------------------------------------------------

// point is one (load, quota) input the solver really evaluates.
type point struct{ load, quota []float64 }

// pointRecorder collects the inputs of every PredictGrad call.
type pointRecorder struct {
	m      *gnn.Model
	points []point
}

func (p *pointRecorder) Predict(load, quota []float64) float64 { return p.m.Predict(load, quota) }

func (p *pointRecorder) PredictGrad(load, quota []float64) (float64, []float64) {
	p.points = append(p.points, point{append([]float64(nil), load...), append([]float64(nil), quota...)})
	return p.m.PredictGrad(load, quota)
}

// microRates are the front-end rates the solver micro-loops run at: the
// trough, the shoulders and the peak of the diurnal shape.
var microRates = []float64{50, 80, 110, 140, 170, 200, 230, 250}

// microLedger times each layer below the controller in isolation, on inputs
// the solver visits: 64 points spread evenly over the descent paths of cold
// solves at microRates. It depends on the model alone, not on the workload or
// the seed, so every workload's traced run reports the same quantities.
func microLedger(a *app.App, tm *graf.TrainedModel) map[string]float64 {
	out := map[string]float64{}
	an := core.NewAnalyzer(a)
	cfg := core.DefaultSolverConfig()
	loads := make([][]float64, len(microRates))
	rec := &pointRecorder{m: tm.Model}
	for i, r := range microRates {
		loads[i] = an.Distribute(a.MixRates(r))
		core.Solve(rec, loads[i], sloS, tm.Bounds.Lo, tm.Bounds.Hi, cfg)
	}
	pts := make([]point, 64)
	for i := range pts {
		pts[i] = rec.points[i*len(rec.points)/len(pts)]
	}

	// nn: one ForwardInto / InputGrad at each of the model's layer shapes.
	c := tm.Model.Cfg
	shapes := [][2]int{
		{2, c.Hidden}, {c.Embed, c.Hidden}, {2 + c.Embed, c.Hidden}, {c.Hidden, c.Hidden}, {c.Hidden, c.Embed},
		{c.Nodes * c.Embed, c.ReadoutHidden}, {c.ReadoutHidden, c.ReadoutHidden}, {c.ReadoutHidden, 1},
	}
	rng := rand.New(rand.NewSource(1))
	type layer struct {
		l      *nn.Linear
		x, y   []float64
		dy, dx []float64
	}
	var layers []layer
	for _, s := range shapes {
		l := layer{l: nn.NewLinear(s[0], s[1], rng), x: make([]float64, s[0]), y: make([]float64, s[1]),
			dy: make([]float64, s[1]), dx: make([]float64, s[0])}
		for i := range l.x {
			l.x[i] = rng.Float64()
		}
		for i := range l.dy {
			l.dy[i] = rng.Float64()
		}
		layers = append(layers, l)
	}
	out["nn.linear_forward_ns"] = perCallNS(200, func() {
		for _, l := range layers {
			l.l.ForwardInto(l.x, l.y)
		}
	})
	out["nn.linear_inputgrad_ns"] = perCallNS(200, func() {
		for _, l := range layers {
			l.l.InputGrad(l.dy, l.dx)
		}
	})

	// gnn: the scratch-owning inference path and the allocating one.
	sc := tm.Model.NewScratch()
	out["gnn.predict_ns"] = perCallNS(4, func() {
		for _, p := range pts {
			tm.Model.PredictWith(sc, p.load, p.quota)
		}
	}) / float64(len(pts))
	out["gnn.predictgrad_ns"] = perCallNS(4, func() {
		for _, p := range pts {
			tm.Model.PredictGradWith(sc, p.load, p.quota)
		}
	}) / float64(len(pts))
	allocLoop := func() {
		for _, p := range pts {
			tm.Model.PredictGrad(p.load, p.quota)
		}
	}
	out["gnn.predictgrad_alloc_ns"] = perCallNS(4, allocLoop) / float64(len(pts))
	out["gnn.predictgrad_allocs"] = mallocs(allocLoop) / float64(len(pts))

	// core: one Algorithm-1 solve, cold from the top of the box, and the
	// brownout rung's short warm solve from the neighbouring rate's solution.
	warmCfg := core.WarmSolverConfig(cfg)
	var cold, warm, iters []float64
	var prev []float64
	for _, load := range loads {
		t0 := time.Now()
		sol := core.Solve(tm.Model, load, sloS, tm.Bounds.Lo, tm.Bounds.Hi, cfg)
		cold = append(cold, ms(time.Since(t0)))
		iters = append(iters, float64(sol.Iterations))
		if prev != nil {
			t0 = time.Now()
			core.SolveFrom(tm.Model, load, sloS, tm.Bounds.Lo, tm.Bounds.Hi, warmCfg, prev)
			warm = append(warm, ms(time.Since(t0)))
		}
		prev = sol.Quotas
	}
	out["core.solve_cold_ms"] = median(cold)
	out["core.solve_warm_ms"] = median(warm)
	out["core.solve_iters"] = median(iters)
	out["core.solve_allocs"] = mallocs(func() {
		core.Solve(tm.Model, loads[len(loads)/2], sloS, tm.Bounds.Lo, tm.Bounds.Hi, cfg)
	})
	return out
}

// perCallNS returns the median, over seven batches of n calls, of the mean
// wall time of one call in nanoseconds.
func perCallNS(n int, fn func()) float64 {
	fn() // warm caches and lazily built state
	batches := make([]float64, 7)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(batches)
}

// mallocs returns how many heap objects one call of fn allocates.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}
