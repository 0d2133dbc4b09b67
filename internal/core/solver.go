package core

import (
	"math"
	"slices"
)

// SolverConfig parameterizes the Configuration Solver (§3.5). The solver is
// versioned, not switched: Version rides the audit header, a log replays
// under the version it names, and nothing but a config or header that names
// version 1 reaches it.
type SolverConfig struct {
	// Version selects the method. 2 (DefaultSolverConfig) follows the SLO
	// boundary by gradient projection and stops on its own criterion; 1 is
	// the original fixed-schedule Adam descent of Eq. 5's penalty loss.
	Version int

	// MaxIters is the budget: model calls (Predict and PredictGrad alike)
	// for version 2, Adam iterations for version 1. Version 2 reads nothing
	// else.
	MaxIters int

	// Rho is the penalty coefficient ρ of Eq. 5, in total-CPU units per
	// second of SLO violation. It must dominate the resource term so the
	// optimum sits at the SLO boundary rather than below it.
	Rho float64

	// LR, Tolerance and PatienceIters are version 1's: the Adam learning
	// rate in kilocore units, and the early exit once the loss EMA moves by
	// less than Tolerance for PatienceIters consecutive iterations.
	LR            float64
	Tolerance     float64
	PatienceIters int
}

// DefaultSolverConfig returns the solver settings used in the evaluation:
// version 2 with a budget it does not come near (a solve takes 40–150 model
// calls). The version 1 fields keep their shipped values, so a caller that
// sets Version = 1 gets the original solver.
func DefaultSolverConfig() SolverConfig {
	return SolverConfig{
		Version:       2,
		MaxIters:      600,
		Rho:           200,
		LR:            0.02,
		Tolerance:     1e-4,
		PatienceIters: 8,
	}
}

// Solution is the solver's output.
type Solution struct {
	Quotas     []float64 // millicores per service
	Predicted  float64   // model's latency estimate at Quotas (seconds)
	TotalQuota float64   // Σ Quotas
	// Iterations is the work done: every model call under version 2, Adam
	// iterations under version 1.
	Iterations int
	// Converged reports that the solver stopped by its own criterion rather
	// than by running out of budget. A corner of the box counts: an SLO the
	// box cannot meet converges at the upper bounds.
	Converged bool
}

// Solve finds the cheapest configuration the model predicts to meet the SLO,
//
//	min Σᵢ rᵢ  s.t.  L(w, r) ≤ SLO,  lo ≤ r ≤ hi
//
// over Algorithm 1's reduced search space, starting from the upper bounds.
// It is the problem Eq. 5 poses with a penalty term; version 2 solves it on
// the constraint itself. The returned quotas satisfy the model's latency
// estimate ≤ SLO whenever the box admits it.
func Solve(m LatencyModel, load []float64, sloSeconds float64, lo, hi []float64, cfg SolverConfig) Solution {
	return SolveFrom(m, load, sloSeconds, lo, hi, cfg, nil)
}

// WarmSolverConfig derives the brownout ladder's warm-start solver settings
// from the full configuration: an eighth of the budget, at least 40. It is a
// pure function of cfg so offline replay can re-derive the exact settings a
// warm-solve decision used from the audit header alone.
func WarmSolverConfig(cfg SolverConfig) SolverConfig {
	w := cfg
	w.MaxIters = cfg.MaxIters / 8
	if w.MaxIters < 40 {
		w.MaxIters = 40
	}
	if w.MaxIters > cfg.MaxIters {
		w.MaxIters = cfg.MaxIters
	}
	return w
}

// SolveFrom is Solve with an explicit warm start: the search begins at the
// given raw quota vector (millicores, clamped into the box) instead of the
// upper bounds. A nil or mis-sized start falls back to the cold start. The
// brownout ladder's StepWarm rung starts from the previous tick's raw
// solution on WarmSolverConfig's budget; every other solve starts cold, so
// that tenants under the same load walk the same points and share them in
// the prediction cache.
func SolveFrom(m LatencyModel, load []float64, sloSeconds float64, lo, hi []float64, cfg SolverConfig, start []float64) Solution {
	return new(workspace).solve(m, load, sloSeconds, lo, hi, cfg, start)
}

// workspace is what a version 2 solve writes: its scratch vectors and the
// answer. SolveFrom takes a new one per call; a Controller keeps one, so a
// solving decision allocates none of it. A Solution's Quotas are the
// workspace's x, valid until its next solve.
type workspace struct {
	buf  []float64 // g, gPrev, d, ones, trial, probe: n each
	x    []float64
	free []bool
}

// solve is SolveFrom in w's buffers.
func (w *workspace) solve(m LatencyModel, load []float64, sloSeconds float64, lo, hi []float64, cfg SolverConfig, start []float64) Solution {
	n := len(load)
	if len(lo) != n || len(hi) != n {
		panic("core: Solve bounds must match load length")
	}
	solve, ok := solvers[cfg.Version]
	if !ok {
		panic("core: unknown solver version")
	}
	return solve(w, m, load, sloSeconds, lo, hi, cfg, start)
}

// reset sizes w for n coordinates, all zero, as a fresh allocation would be.
func (w *workspace) reset(n int) {
	if cap(w.x) < n {
		w.buf, w.x, w.free = make([]float64, 6*n), make([]float64, n), make([]bool, n)
	}
	w.buf, w.x, w.free = w.buf[:6*n], w.x[:n], w.free[:n]
	clear(w.buf)
	clear(w.x)
	clear(w.free)
}

// solvers are the versions SolveFrom implements, by SolverConfig.Version.
// Version 1 allocates its own vectors and ignores the workspace.
var solvers = map[int]func(w *workspace, m LatencyModel, load []float64, sloSeconds float64, lo, hi []float64, cfg SolverConfig, start []float64) Solution{
	1: solveV1,
	2: solveV2,
}

// Version 2's constants. Lengths are fractions of the widest side of the
// box, latencies fractions of the SLO, so the stop does not depend on the
// application's scale.
const (
	// A feasible point with L within boundaryBand·SLO of the SLO is on the
	// boundary: 1 ms at a 250 ms SLO.
	boundaryBand = 0.004
	// The first and longest tangent step, and the shortest worth a model
	// call — under it the descent has converged.
	firstStep = 0.25
	minStep   = 0.0005
	// The projected cost direction's largest component at which the point
	// counts as stationary: the free coordinates' sensitivities agree to 3%.
	stationary = 0.03
	// A failed step retries at a third; an accepted one doubles the next.
	stepShrink = 0.35
	stepGrow   = 2.0
	// Secant strides toward the boundary overshoot by a fifth, so a convex L
	// is crossed — and bracketed — instead of crept up on from one side.
	overshoot = 1.2
	// The previous point's gradient is projected out as well once it turns
	// from the current one by more than this (sin²): the boundary has a
	// crease there (the model is piecewise linear), and a direction tangent
	// to one side only zigzags across it.
	creaseTurn = 0.1
)

// descent is the state of one version 2 solve.
type descent struct {
	m      LatencyModel
	load   []float64
	slo    float64
	lo, hi []float64
	calls  int // model calls made
	budget int

	x        []float64 // best point so far: feasible once any has been seen
	lx       float64   // the model's latency at x
	g, gPrev []float64 // ∇L at x, and at the point before it
	d        []float64 // search direction, max|dᵢ| = 1
	ones     []float64 // the way back to the boundary: every quota up alike
	free     []bool    // coordinates the direction may move
	trial    []float64
	probe    []float64
	band     float64 // boundary band, seconds
	minStep  float64 // millicores
	maxStep  float64
}

// solveV2 is solver version 2. The optimum of min Σr s.t. L ≤ SLO sits on the
// boundary L = SLO (or at a corner of the box), so the search goes there
// first — a 1-D root search from the start point toward the far corner — and
// then walks along it: at each boundary point the cost direction −1 is
// projected onto the boundary's tangent over the coordinates not pinned to
// the box, a step along it is restored to the boundary by a 1-D search
// straight up, and the new point is accepted if it is feasible and cheaper.
// The walk ends when the projected direction vanishes (the KKT condition:
// every free coordinate buys the same latency per millicore) or when no step
// longer than minStep makes progress. Every iterate after the first bracket
// is feasible, so running out of budget returns a usable answer.
func solveV2(w *workspace, m LatencyModel, load []float64, sloSeconds float64, lo, hi []float64, cfg SolverConfig, start []float64) Solution {
	n := len(load)
	w.reset(n)
	buf := w.buf
	s := descent{
		m: m, load: load, slo: sloSeconds, lo: lo, hi: hi, budget: cfg.MaxIters,
		x: w.x, free: w.free,
		g: buf[:n], gPrev: buf[n : 2*n], d: buf[2*n : 3*n], ones: buf[3*n : 4*n],
		trial: buf[4*n : 5*n], probe: buf[5*n : 6*n],
		band: boundaryBand * sloSeconds,
	}
	span := 0.0
	for i := range lo {
		span = math.Max(span, hi[i]-lo[i])
		s.ones[i] = 1
	}
	s.minStep, s.maxStep = minStep*span, firstStep*span
	copy(s.x, hi)
	if len(start) == n {
		s.along(s.x, start, s.d, 0) // d is still zero: this clamps start into the box
	}
	converged := s.run()
	return Solution{Converged: converged, Quotas: s.x, Predicted: s.lx, Iterations: s.calls, TotalQuota: total(s.x)}
}

// run is the solve: the start point, the far corner, the first boundary
// point, the walk. It reports whether the search converged.
func (s *descent) run() bool {
	// The first call is a gradient call at the start point, whatever follows.
	s.lx = s.grad(s.x)
	feasible := s.lx <= s.slo
	// A feasible start looks for the boundary toward lo, an infeasible one
	// toward hi — and from hi itself toward lo after all: a learned model
	// need not be monotone.
	end := s.lo
	if !feasible && !slices.Equal(s.x, s.hi) {
		end = s.hi
	}
	if slices.Equal(s.x, end) {
		return true // a start at lo that meets the SLO
	}
	if !s.left() {
		return false
	}
	le := s.predict(end)
	if (le <= s.slo) == feasible {
		// No boundary between the two. Either lo meets the SLO, or nothing
		// seen does and hi, the most the box can give, is the answer.
		if feasible || !slices.Equal(s.x, s.hi) {
			copy(s.x, end)
			s.lx = le
		}
		return !math.IsNaN(s.lx)
	}
	copy(s.trial, s.x)
	for i := range s.d {
		s.d[i] = end[i] - s.x[i]
	}
	var t float64
	if feasible {
		t, s.lx = s.bracket(s.trial, s.d, 0, s.lx, 1, le)
	} else {
		t, s.lx = s.bracket(s.trial, s.d, 1, le, 0, s.lx)
	}
	s.along(s.x, s.trial, s.d, t)
	return s.follow(t == 0)
}

func (s *descent) left() bool { return s.calls < s.budget }

func (s *descent) predict(q []float64) float64 {
	s.calls++
	return s.m.Predict(s.load, q)
}

// grad evaluates the model and its gradient at q. The model may hand back a
// buffer it reuses on its next call, so the gradient is copied out.
func (s *descent) grad(q []float64) float64 {
	s.calls++
	l, g := s.m.PredictGrad(s.load, q)
	copy(s.gPrev, s.g)
	copy(s.g, g)
	return l
}

func total(q []float64) float64 {
	sum := 0.0
	for _, v := range q {
		sum += v
	}
	return sum
}

// along writes p + t·v, clamped into the box, to out.
func (s *descent) along(out, p, v []float64, t float64) {
	for i := range out {
		q := p[i] + t*v[i]
		if q < s.lo[i] {
			q = s.lo[i]
		}
		if q > s.hi[i] {
			q = s.hi[i]
		}
		out[i] = q
	}
}

// bracket narrows an interval on the clamped ray p + t·v that holds the
// boundary — tf feasible with latency lf, ti not, with latency li — by
// regula falsi with Illinois weights, aimed at the middle of the boundary
// band. It stops when the feasible end is inside the band, when the interval
// no longer moves any coordinate by half a minStep (a piecewise-constant
// model cannot do better), or on budget, and returns the feasible end.
func (s *descent) bracket(p, v []float64, tf, lf, ti, li float64) (t, l float64) {
	vmax := 0.0
	for _, c := range v {
		vmax = math.Max(vmax, math.Abs(c))
	}
	target := s.slo - s.band/2
	wf, wi := 1.0, 1.0 // an end that survives two rounds has its residual halved
	for s.left() && s.slo-lf > s.band && math.Abs(ti-tf)*vmax > s.minStep/2 {
		ff, fi := (lf-target)*wf, (li-target)*wi
		fr := 0.5
		if fi-ff > 0 {
			fr = -ff / (fi - ff)
		}
		if !(fr >= 0.05) {
			fr = 0.05
		}
		if fr > 0.95 {
			fr = 0.95
		}
		t := tf + fr*(ti-tf)
		s.along(s.probe, p, v, t)
		if l := s.predict(s.probe); l <= s.slo {
			tf, lf, wf, wi = t, l, 1, wi/2
		} else {
			ti, li, wi, wf = t, l, 1, wf/2
		}
	}
	return tf, lf
}

// restore returns from p, whose latency l has left the boundary band, along
// v — slope is dL/dt at p — to a feasible point inside the band: secant
// strides until the SLO is crossed, then bracket. ok is false if no feasible
// point turned up.
func (s *descent) restore(p, v []float64, l, slope float64) (t, lt float64, ok bool) {
	if l <= s.slo && s.slo-l <= s.band {
		return 0, l, true
	}
	target := s.slo - s.band/2
	t0, l0 := 0.0, l
	stride := overshoot * (target - l0) / slope
	for k := 0; k < 8 && s.left() && stride != 0 && !math.IsNaN(stride) && !math.IsInf(stride, 0); k++ {
		t1 := t0 + stride
		s.along(s.probe, p, v, t1)
		l1 := s.predict(s.probe)
		if (l1 <= s.slo) != (l0 <= s.slo) {
			if l1 <= s.slo {
				t0, l0, t1, l1 = t1, l1, t0, l0
			}
			t, lt = s.bracket(p, v, t0, l0, t1, l1)
			return t, lt, true
		}
		// Same side still: aim again with the secant through the last two
		// points, going the same way by one to four times the last stride.
		next := overshoot * (target - l1) * (t1 - t0) / (l1 - l0)
		if !(next*stride > 0) || math.Abs(next) < math.Abs(stride) {
			next = 2 * stride
		}
		if math.Abs(next) > 4*math.Abs(stride) {
			next = 4 * stride
		}
		t0, l0, stride = t1, l1, next
	}
	return t0, l0, l0 <= s.slo
}

// direction fills d with the cost direction −1 projected onto the tangent of
// L = SLO at x, over the coordinates the box lets move that way — and off
// the previous point's gradient too where the boundary creases — scaled to
// max|dᵢ| = 1. It returns the unscaled maximum, the KKT residual: zero when
// every free coordinate has the same sensitivity ∂L/∂rᵢ. At the first
// boundary point the "previous" gradient is the start point's: far away, but
// projecting it out of the first and longest step is what keeps that step
// out of bad basins (measured on 756 grid points of two applications: 7 end
// more than 5% above version 1 without it, 2 with it).
func (s *descent) direction() float64 {
	for i := range s.free {
		s.free[i] = true
	}
	for changed := true; changed; {
		// Gram–Schmidt over the free coordinates: u₁ = g, u₂ = gPrev − k·g.
		var sum1, sum2, g11, g12, g22 float64
		nfree := 0
		for i, f := range s.free {
			if f {
				sum1 += s.g[i]
				sum2 += s.gPrev[i]
				g11 += s.g[i] * s.g[i]
				g12 += s.g[i] * s.gPrev[i]
				g22 += s.gPrev[i] * s.gPrev[i]
				nfree++
			}
		}
		var k, c1, c2 float64
		if g11 > 0 {
			k = g12 / g11
			c1 = sum1 / g11
			if u22 := g22 - k*g12; nfree > 2 && u22 > creaseTurn*g22 {
				c2 = (sum2 - k*sum1) / u22
			}
		}
		changed = false
		for i, f := range s.free {
			s.d[i] = 0
			if !f {
				continue
			}
			di := -1 + c1*s.g[i] + c2*(s.gPrev[i]-k*s.g[i])
			if nfree == 1 && g11 > 0 {
				di = 0 // one free coordinate has no tangent to move along
			}
			if (di < 0 && s.x[i] <= s.lo[i]) || (di > 0 && s.x[i] >= s.hi[i]) {
				s.free[i], changed = false, true
				continue
			}
			s.d[i] = di
		}
	}
	residual := 0.0
	for _, c := range s.d {
		residual = math.Max(residual, math.Abs(c))
	}
	if residual > 0 {
		for i := range s.d {
			s.d[i] /= residual
		}
	}
	return residual
}

// follow walks the boundary from the feasible point x until the projected
// direction or the step falls under its threshold (true), or the budget runs
// out (false). haveGrad says g is already the gradient at x.
func (s *descent) follow(haveGrad bool) bool {
	step := s.maxStep
	for s.left() {
		if !haveGrad {
			s.grad(s.x) // the gradient is re-used until the point moves
		}
		if s.direction() < stationary {
			return true
		}
		for cost := total(s.x); ; {
			if step < s.minStep {
				return true
			}
			if !s.left() {
				return false
			}
			moved, retry := s.step(step, cost)
			if moved {
				break
			}
			step *= retry
		}
		step = math.Min(step*stepGrow, s.maxStep)
		haveGrad = false
	}
	return false
}

// step tries x + step·d, restored to the boundary straight up — every quota
// by the same amount. If the result is feasible and cheaper than cost it
// replaces x; otherwise retry is the factor to shorten the step by.
//
// −∇L would be the shortest way back, but it moves only the coordinates the
// model calls sensitive, and where the model is wrong about those — at the
// lower faces of the box, which training samples barely reach — the walk
// settles in basins the real system does not honour. Raising everything
// together lands in the same place on the gap harness, in fewer calls, and
// holds SLO attainment where version 1 had it (EXPERIMENTS.md).
func (s *descent) step(step, cost float64) (moved bool, retry float64) {
	s.along(s.trial, s.x, s.d, step)
	l := s.predict(s.trial)
	slope := 0.0 // dL/dt along +1
	for _, gi := range s.g {
		slope += gi
	}
	// To first order the way back costs (l−SLO)/−slope per coordinate. If
	// that eats the tangent step's whole gain, the search is not worth its
	// calls; the two also say how much shorter a step would pay (the excess
	// grows with the square of the step, the gain linearly).
	gain, back := cost-total(s.trial), (l-s.slo)/-slope*float64(len(s.g))
	if l > s.slo && back >= gain {
		return false, math.Max(0.1, math.Min(0.5, gain/(2*back)))
	}
	if slope < 0 {
		t, lt, ok := s.restore(s.trial, s.ones, l, slope)
		if !ok {
			return false, stepShrink
		}
		s.along(s.trial, s.trial, s.ones, t)
		l = lt
	}
	if !(l <= s.slo) || !(total(s.trial) < cost) {
		return false, stepShrink
	}
	copy(s.x, s.trial)
	s.lx = l
	return true, 1
}

// LossAt evaluates Eq. 5 at a specific configuration — used by the Fig 12
// heatmap and by diagnostics.
func LossAt(m LatencyModel, load, quotas []float64, sloSeconds float64, rho float64) float64 {
	loss := 0.0
	for _, q := range quotas {
		loss += q / 1000
	}
	if lat := m.Predict(load, quotas); lat > sloSeconds {
		loss += rho * (lat - sloSeconds)
	}
	return loss
}
