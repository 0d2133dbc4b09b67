package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pass runs one forward and backward of m on x through the production
// kernels — Forward, Backward, and WeightGrad over every parameter row — on
// the one-row tape t, accumulating parameter gradients. The returned slices
// are t's buffers.
func pass(m *MLP, t *Rows, x, dy []float64) (y, dx []float64) {
	evalOn(m, t, x)
	copy(t.DOut, dy)
	m.Backward(t, 0, 1, true)
	for li, l := range m.Layers {
		m.WeightGrad(t, 1, li, 0, l.Out)
	}
	return t.Out(), t.DIn()
}

// evalOn runs x forward on the one-row tape t.
func evalOn(m *MLP, t *Rows, x []float64) float64 {
	copy(t.In, x)
	m.Forward(t, 0, 1)
	return t.Out()[0]
}

func eval(m *MLP, x []float64) float64 { return evalOn(m, m.NewRows(1, nil, nil, false), x) }

// step takes one whole Adam step.
func step(a *Adam, m *MLP, scale float64) {
	a.Next()
	for li, l := range m.Layers {
		a.StepRows(li, 0, l.Out, scale)
	}
}

// setW writes one weight and the forward's mirror of it.
func setW(l *Linear, wi int, v float64) {
	l.W[wi] = v
	l.mirror(wi/l.In, wi/l.In+1)
}

func zeroGrad(m *MLP) {
	for _, l := range m.Layers {
		clear(l.GW)
		clear(l.GB)
	}
}

// Analytic input gradients against central differences for an MLP.
func TestMLPInputGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{3, 8, 8, 1}, 0, rng)
	x := []float64{0.3, -0.7, 1.2}
	y, dx := pass(m, m.NewRows(1, nil, nil, false), x, []float64{1})
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		num := (eval(m, xp) - eval(m, xm)) / (2 * h)
		if math.Abs(num-dx[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("d y/d x[%d]: analytic %v, numeric %v (y=%v)", i, dx[i], num, y[0])
		}
	}
}

func TestMLPParamGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{2, 5, 1}, 0, rng)
	x := []float64{0.5, -0.25}
	pass(m, m.NewRows(1, nil, nil, false), x, []float64{1})
	const h = 1e-6
	for li, l := range m.Layers {
		for wi := range l.W {
			orig := l.W[wi]
			setW(l, wi, orig+h)
			yp := eval(m, x)
			setW(l, wi, orig-h)
			ym := eval(m, x)
			setW(l, wi, orig)
			num := (yp - ym) / (2 * h)
			if math.Abs(num-l.GW[wi]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: analytic %v, numeric %v", li, wi, l.GW[wi], num)
			}
		}
		for bi := range l.B {
			orig := l.B[bi]
			l.B[bi] = orig + h
			yp := eval(m, x)
			l.B[bi] = orig - h
			ym := eval(m, x)
			l.B[bi] = orig
			num := (yp - ym) / (2 * h)
			if math.Abs(num-l.GB[bi]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("layer %d B[%d]: analytic %v, numeric %v", li, bi, l.GB[bi], num)
			}
		}
	}
}

// The same check with dropout masks in force: the masked network is the
// function whose gradients training accumulates.
func TestMaskedGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP([]int{3, 9, 7, 1}, 0.4, rng)
	v := m.NewRows(1, nil, nil, true)
	m.DrawMasks(v, 0, rng)
	x := []float64{0.4, -0.2, 0.9}
	_, dx := pass(m, v, x, []float64{1})
	dx = append([]float64(nil), dx...)
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		yp := evalOn(m, v, xp)
		ym := evalOn(m, v, xm)
		num := (yp - ym) / (2 * h)
		if math.Abs(num-dx[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("masked d y/d x[%d]: analytic %v, numeric %v", i, dx[i], num)
		}
	}
	for li, l := range m.Layers {
		for wi := range l.W {
			orig := l.W[wi]
			setW(l, wi, orig+h)
			yp := evalOn(m, v, x)
			setW(l, wi, orig-h)
			ym := evalOn(m, v, x)
			setW(l, wi, orig)
			if num := (yp - ym) / (2 * h); math.Abs(num-l.GW[wi]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("masked layer %d W[%d]: analytic %v, numeric %v", li, wi, l.GW[wi], num)
			}
		}
	}
}

// Weight sharing: two rows of one tape accumulate both contributions into
// the shared gradients.
func TestWeightSharingAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{1, 4, 1}, 0, rng)
	x1, x2 := []float64{0.7}, []float64{-0.4}
	pass(m, m.NewRows(1, nil, nil, false), x1, []float64{1})
	g1 := append([]float64(nil), m.Layers[0].GW...)
	zeroGrad(m)
	pass(m, m.NewRows(1, nil, nil, false), x2, []float64{1})
	g2 := append([]float64(nil), m.Layers[0].GW...)
	zeroGrad(m)
	// Both rows of one tape accumulate into one gradient, row range by row
	// range, the way the trainer does it.
	v := m.NewRows(2, []float64{x1[0], x2[0]}, []float64{1, 1}, false)
	m.Forward(v, 0, 1)
	m.Forward(v, 1, 2)
	m.Backward(v, 0, 2, false)
	m.WeightGrad(v, 2, 0, 0, 3)
	m.WeightGrad(v, 2, 0, 3, 4)
	for i := range g1 {
		if math.Abs(m.Layers[0].GW[i]-(g1[i]+g2[i])) > 1e-12 {
			t.Fatalf("shared gradient does not accumulate: %v vs %v+%v", m.Layers[0].GW[i], g1[i], g2[i])
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 50, 1}, 0.5, rng)
	x := []float64{1, 1}
	// Eval without masks is deterministic and ignores dropout.
	y1, y2 := eval(m, x), eval(m, x)
	if y1 != y2 {
		t.Error("eval forward not deterministic")
	}
	// Training passes differ between draws.
	v := m.NewRows(1, nil, nil, true)
	train := func() float64 {
		m.DrawMasks(v, 0, rng)
		return evalOn(m, v, x)
	}
	if train() == train() {
		t.Error("dropout produced identical training passes (vanishingly unlikely)")
	}
	// Inverted dropout: expectation of training output ≈ eval output.
	sum := 0.0
	n := 2000
	for i := 0; i < n; i++ {
		sum += train()
	}
	mean := sum / float64(n)
	if math.Abs(mean-y1) > 0.15*math.Abs(y1)+0.05 {
		t.Errorf("E[train output] = %v, eval output = %v", mean, y1)
	}
	// A network without dropout consumes no random numbers: the trainer
	// pre-draws masks in the order a serial loop would, so a stray draw
	// would shift every later one.
	plain := NewMLP([]int{2, 5, 1}, 0, rng)
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	plain.DrawMasks(plain.NewRows(1, nil, nil, true), 0, r1)
	if r1.Int63() != r2.Int63() {
		t.Error("DrawMasks on a network without dropout consumed random numbers")
	}
}

// Adam on a convex quadratic must converge near its minimum.
func TestVecAdamConvergesOnQuadratic(t *testing.T) {
	x := []float64{5, -3}
	opt := NewVecAdam(0.1, 2)
	for i := 0; i < 2000; i++ {
		g := []float64{2 * (x[0] - 1), 2 * (x[1] - 2)}
		opt.Step(x, g)
	}
	if math.Abs(x[0]-1) > 0.01 || math.Abs(x[1]-2) > 0.01 {
		t.Errorf("VecAdam converged to %v, want [1 2]", x)
	}
}

// Training an MLP with Adam must fit a simple nonlinear function.
func TestMLPLearnsFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{1, 16, 16, 1}, 0, rng)
	opt := NewAdam(0.01, m.Layers)
	v := m.NewRows(1, nil, nil, false)
	target := func(x float64) float64 { return 1 + x*x }
	for iter := 0; iter < 3000; iter++ {
		const batch = 16
		for b := 0; b < batch; b++ {
			x := []float64{rng.Float64()*2 - 1}
			diff := evalOn(m, v, x) - target(x[0])
			pass(m, v, x, []float64{2 * diff})
		}
		step(opt, m, batch)
	}
	worst := 0.0
	for x := -1.0; x <= 1; x += 0.1 {
		if e := math.Abs(eval(m, []float64{x}) - target(x)); e > worst {
			worst = e
		}
	}
	if worst > 0.1 {
		t.Errorf("worst-case fit error %v, want < 0.1", worst)
	}
}

func TestAsymmetricHuberShape(t *testing.T) {
	h := PaperLoss()
	// Continuity at the thresholds.
	for _, x := range []float64{-h.ThetaUnder, h.ThetaOver} {
		lIn, _ := h.Loss(1+x-1e-9, 1)
		lOut, _ := h.Loss(1+x+1e-9, 1)
		if math.Abs(lIn-lOut) > 1e-6 {
			t.Errorf("discontinuity at x=%v: %v vs %v", x, lIn, lOut)
		}
	}
	// Quadratic inside.
	l, _ := h.Loss(1.05, 1)
	if math.Abs(l-0.0025) > 1e-12 {
		t.Errorf("loss at x=0.05: %v, want 0.0025", l)
	}
	// Underestimation penalized more than same-magnitude overestimation
	// beyond the over threshold.
	lu, _ := h.Loss(1-0.25, 1) // x=-0.25, still quadratic (θ_under=0.3)
	lo, _ := h.Loss(1+0.25, 1) // x=+0.25, linear beyond θ_over=0.1
	if lu <= lo {
		t.Errorf("under-estimation loss %v should exceed over-estimation loss %v", lu, lo)
	}
	// Zero truth is a no-op, not a crash.
	if l, d := h.Loss(1, 0); l != 0 || d != 0 {
		t.Error("zero truth must be ignored")
	}
}

// Property: Eq. 4's derivative matches the loss numerically everywhere.
func TestHuberDerivativeProperty(t *testing.T) {
	h := PaperLoss()
	f := func(raw int16) bool {
		x := float64(raw) / 10000 // percentage error in [-3.2, 3.2]
		pred := 1 + x
		const eps = 1e-7
		lp, _ := h.Loss(pred+eps, 1)
		lm, _ := h.Loss(pred-eps, 1)
		num := (lp - lm) / (2 * eps)
		_, d := h.Loss(pred, 1)
		return math.Abs(num-d) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestMSELoss(t *testing.T) {
	l, d := MSE{}.Loss(1.2, 1)
	if math.Abs(l-0.04) > 1e-12 {
		t.Errorf("MSE loss = %v, want 0.04", l)
	}
	if math.Abs(d-0.4) > 1e-12 {
		t.Errorf("MSE dPred = %v, want 0.4", d)
	}
}

func TestLinearShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	l.ForwardInto([]float64{1, 2}, make([]float64, 2))
}

// Adam training with the asymmetric loss biases predictions upward on noisy
// targets — the mechanism behind the paper's 5.2% average overestimation.
func TestAsymmetricLossBiasesUp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP([]int{1, 8, 1}, 0, rng)
	opt := NewAdam(0.005, m.Layers)
	v := m.NewRows(1, nil, nil, false)
	h := PaperLoss()
	truthMean := 1.0
	x := []float64{0.5}
	for iter := 0; iter < 4000; iter++ {
		const batch = 8
		for b := 0; b < batch; b++ {
			truth := truthMean * math.Exp(0.4*rng.NormFloat64())
			_, d := h.Loss(evalOn(m, v, x), truth)
			pass(m, v, x, []float64{d})
		}
		step(opt, m, batch)
	}
	y := eval(m, x)
	med := truthMean * math.Exp(-0.4*0.4/2) // lognormal median < mean
	if y <= med {
		t.Errorf("asymmetric loss prediction %v should sit above the median %v", y, med)
	}
}
