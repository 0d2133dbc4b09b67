package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two vectors are equal to the bit, signed zeros
// included.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The blocked forward is the naive triple loop to the bit, for every
// remainder of Out modulo the block and for inputs shorter and longer than it.
func TestForwardIntoMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, in := range []int{1, 2, 22, 120} {
		for out := 1; out <= 9; out++ {
			l := NewLinear(in, out, rng)
			copy(l.B, randVec(rng, out))
			x := randVec(rng, in)
			want := make([]float64, out)
			for o := range want {
				sum := l.B[o]
				for i, xi := range x {
					sum += float64(l.W[o*in+i] * xi)
				}
				want[o] = sum
			}
			got := make([]float64, out)
			l.ForwardInto(x, got)
			if !sameBits(got, want) {
				t.Errorf("Linear(%d,%d): blocked forward %v, naive %v", in, out, got, want)
			}
		}
	}
}

// The input- and weight-gradient row kernels are the naive loops to the bit
// over several rows, signed zeros and all-zero gradient rows included, with
// the weight gradient adding to accumulators that already hold gradients and
// taking the parameter rows in two ranges.
func TestGradKernelsMatchNaiveLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	negZero := math.Copysign(0, -1)
	const in, out = 22, 9
	for name, dy := range map[string][]float64{
		"all-zero":  make([]float64, out),
		"mixed":     {0.3, 0, -1.2, 0, 0, 2.5, 0, 0, -0.1},
		"neg-zero":  {negZero, 0.7, negZero, 0, -0.4, negZero, negZero, 0, 1.1},
		"all-dense": randVec(rng, out),
	} {
		l := NewLinear(in, out, rng)
		const n = 3 // rows: dy, a zero row, dy again
		dys := append(append(append([]float64(nil), dy...), make([]float64, out)...), dy...)
		x := randVec(rng, n*in)
		x[3], x[7], x[in+5] = 0, negZero, negZero // ±0 inputs make ±0 products on live rows too

		wantDX := make([]float64, n*in)
		for r := 0; r < n; r++ {
			for o := 0; o < out; o++ {
				for i := 0; i < in; i++ {
					wantDX[r*in+i] += float64(l.W[o*in+i] * dys[r*out+o])
				}
			}
		}
		gotDX := randVec(rng, n*in) // stale contents must not survive
		l.inputGradRows(dys, gotDX, nil, nil, n)
		if !sameBits(gotDX, wantDX) {
			t.Errorf("%s: InputGrad rows %v, naive %v", name, gotDX, wantDX)
		}

		for pass := 0; pass < 2; pass++ { // from zeroed accumulators, then onto the result
			wantGW := append([]float64(nil), l.GW...)
			wantGB := append([]float64(nil), l.GB...)
			for r := 0; r < n; r++ {
				for o := 0; o < out; o++ {
					g := dys[r*out+o]
					wantGB[o] += g
					for i := 0; i < in; i++ {
						wantGW[o*in+i] += float64(g * x[r*in+i])
					}
				}
			}
			l.weightGradRows(x, dys, n, 0, 5)
			l.weightGradRows(x, dys, n, 5, out)
			if !sameBits(l.GW, wantGW) || !sameBits(l.GB, wantGB) {
				t.Errorf("%s pass %d: weight gradient rows differ from the naive loop", name, pass)
			}
		}
	}
}

// Adam steps the same whatever the order and the division of the rows.
func TestAdamStepRowsMatchesStep(t *testing.T) {
	build := func() (*MLP, *Adam) {
		m := NewMLP([]int{3, 7, 2}, 0, rand.New(rand.NewSource(3)))
		return m, NewAdam(0.01, m.Layers)
	}
	whole, wholeOpt := build()
	split, splitOpt := build()
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 3; n++ {
		for li := range whole.Layers {
			copy(whole.Layers[li].GW, randVec(rng, len(whole.Layers[li].GW)))
			copy(whole.Layers[li].GB, randVec(rng, len(whole.Layers[li].GB)))
			copy(split.Layers[li].GW, whole.Layers[li].GW)
			copy(split.Layers[li].GB, whole.Layers[li].GB)
		}
		step(wholeOpt, whole, 4)
		splitOpt.Next()
		for li := len(split.Layers) - 1; li >= 0; li-- {
			out := split.Layers[li].Out
			splitOpt.StepRows(li, out/2, out, 4)
			splitOpt.StepRows(li, 0, out/2, 4)
		}
		for li, l := range whole.Layers {
			s := split.Layers[li]
			if !sameBits(l.W, s.W) || !sameBits(l.B, s.B) {
				t.Fatalf("step %d layer %d: split StepRows differs from whole layers", n, li)
			}
			if !sameBits(s.GW, make([]float64, len(s.GW))) || !sameBits(s.GB, make([]float64, len(s.GB))) {
				t.Fatalf("step %d layer %d: StepRows left gradients behind", n, li)
			}
		}
	}
}

// special draws normal values and, among them, what the two kernel sets must
// also agree on: ±0, subnormals, and magnitudes whose products and sums
// overflow. Subnormals are rare because the CPU computes them slowly.
func special(rng *rand.Rand) float64 {
	switch n := rng.Intn(64); {
	case n < 8:
		return 0
	case n < 12:
		return math.Copysign(0, -1)
	case n < 13:
		return float64(rng.Intn(2001)-1000) * 5e-324
	case n < 15:
		return rng.NormFloat64() * 1e300
	}
	return rng.NormFloat64()
}

// bothKernels runs goOp through the Go kernel and avxOp, the same op on
// copies of the buffers it writes, through the AVX kernel.
func bothKernels(goOp, avxOp rowOp) {
	goOp.runGo()
	avxOp.runAVX()
}

// clone returns a copy of v, nil for nil.
func clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

// checkKernels runs the Go and the AVX kernels on one Linear(in, out) and n
// rows whose weights, inputs, gradients, masks and optimizer state fill
// draws, and reports the first result that differs in a bit: the forward,
// plain and as a hidden layer with and without dropout; the input gradient
// over stale dx, plain, gated, and gated with dropout, for drawn dy rows with
// an all-zero one among them;
// the weight gradient onto non-zero accumulators in two row ranges; the
// post-ops alone on pre-activations of ±0, NaN and the drawn values; Adam
// updates of out weights, for a batch of 32 and of 12.
func checkKernels(in, out, n int, fill func([]float64)) error {
	vec := func(k int) []float64 {
		v := make([]float64, k)
		fill(v)
		return v
	}
	l := &Linear{In: in, Out: out, W: vec(in * out), B: vec(out), GW: vec(in * out), GB: vec(out), wt: make([]float64, in*out)}
	l.mirror(0, out)
	x, mask := vec(n*in), vec(n*out)
	dy := vec(n * out)
	clear(dy[(n/2)*out : (n/2+1)*out])
	// Each kernel's three variants: plain, hidden (ReLU or gate), and hidden
	// with dropout. The post-ops are also checked alone below.
	for variant := 0; variant < 3; variant++ {
		act, m := [3][]float64{nil, vec(n * out), vec(n * out)}[variant], [3][]float64{nil, nil, mask}[variant]
		preGo, actGo := vec(n*out), clone(act)
		preAVX, actAVX := clone(preGo), clone(act)
		bothKernels(l.forwardOp(x, preGo, actGo, m, n), l.forwardOp(x, preAVX, actAVX, m, n))
		if !sameBits(preGo, preAVX) || !sameBits(actGo, actAVX) {
			return fmt.Errorf("forward (hidden %v, mask %v): Go %v %v, AVX %v %v", act != nil, m != nil, preGo, actGo, preAVX, actAVX)
		}
		pre, dmask := [3][]float64{nil, vec(n * in), vec(n * in)}[variant], [3][]float64{nil, nil, vec(n * in)}[variant]
		dxGo := vec(n * in)
		dxAVX := clone(dxGo)
		bothKernels(l.inputGradOp(dy, dxGo, pre, dmask, n), l.inputGradOp(dy, dxAVX, pre, dmask, n))
		if !sameBits(dxGo, dxAVX) {
			return fmt.Errorf("input gradient (gated %v, mask %v): Go %v, AVX %v", pre != nil, dmask != nil, dxGo, dxAVX)
		}
	}
	twin := *l
	twin.GW, twin.GB = clone(l.GW), clone(l.GB)
	for _, r := range [][2]int{{0, out / 2}, {out / 2, out}} {
		goOps, avxOps := l.weightGradOps(x, dy, n, r[0], r[1]), twin.weightGradOps(x, dy, n, r[0], r[1])
		bothKernels(goOps[0], avxOps[0])
		bothKernels(goOps[1], avxOps[1])
	}
	if !sameBits(l.GW, twin.GW) || !sameBits(l.GB, twin.GB) {
		return fmt.Errorf("weight gradient: Go %v %v, AVX %v %v", l.GW, l.GB, twin.GW, twin.GB)
	}
	// The post-ops on their own: no product (nk = 0), so they see C as drawn,
	// with ±0 and NaN among it.
	c := vec(n * out)
	for i := 0; i < len(c); i += 3 {
		c[i] = [...]float64{0, math.Copysign(0, -1), math.NaN()}[i/3%3]
	}
	p := vec(n * out)
	for i := 1; i < len(p); i += 4 {
		p[i] = [...]float64{0, math.Copysign(0, -1), math.NaN()}[i/4%3]
	}
	for _, post := range []int{postReLU, postGate} {
		for _, m := range [][]float64{nil, mask} {
			cGo, pGo := clone(c), clone(p)
			cAVX, pAVX := clone(c), clone(p)
			op := rowOp{c: cGo, sc: out, na: n, nb: out, post: post, p: pGo, m: m}
			goOp := op
			op.c, op.p = cAVX, pAVX
			bothKernels(goOp, op)
			if !sameBits(cGo, cAVX) || !sameBits(pGo, pAVX) {
				return fmt.Errorf("post-op %d (mask %v) on %v, %v: Go %v %v, AVX %v %v", post, m != nil, c, p, cGo, pGo, cAVX, pAVX)
			}
		}
	}
	a := &Adam{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	a.Next()
	a.Next()
	for _, scale := range []float64{32, 12} { // a power of two, which the AVX kernel multiplies by its inverse, and not
		state := [][]float64{vec(out), vec(out), vec(out), vec(out)} // p, g, m, v
		var adamTwin [][]float64
		for _, s := range state {
			adamTwin = append(adamTwin, clone(s))
		}
		a.updateGo(state[0], state[1], state[2], state[3], scale)
		a.updateAVX(adamTwin[0], adamTwin[1], adamTwin[2], adamTwin[3], scale)
		for i, s := range state {
			if !sameBits(s, adamTwin[i]) {
				return fmt.Errorf("Adam (scale %v): vector %d differs: Go %v, AVX %v", scale, i, s, adamTwin[i])
			}
		}
	}
	return nil
}

// The forward's mirror is W's transpose after every writer of W.
func TestMirrorFollowsW(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewMLP([]int{7, 13, 5, 1}, 0, rng)
	opt := NewAdam(0.01, m.Layers)
	check := func(when string) {
		for li, l := range m.Layers {
			if !l.MirrorFresh() {
				t.Fatalf("layer %d after %s: mirror is not Wᵀ", li, when)
			}
		}
	}
	check("NewLinear")
	for n := 0; n < 3; n++ {
		opt.Next()
		for li, l := range m.Layers {
			copy(l.GW, randVec(rng, len(l.GW)))
			copy(l.GB, randVec(rng, len(l.GB)))
			opt.StepRows(li, l.Out/2, l.Out, 8)
			opt.StepRows(li, 0, l.Out/2, 8)
		}
		check("StepRows")
	}
	for _, l := range m.Layers {
		l.SetParams(randVec(rng, len(l.W)), randVec(rng, len(l.B)))
	}
	check("SetParams")
	m.Layers[1].W[3]++
	if m.Layers[1].MirrorFresh() {
		t.Error("MirrorFresh misses a weight written behind the mirror's back")
	}
}

var shapes = [][2]int{{2, 20}, {22, 20}, {20, 20}, {120, 120}, {120, 1}}

func BenchmarkLinearForwardInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		l := NewLinear(s[0], s[1], rng)
		x, y := randVec(rng, s[0]), make([]float64, s[1])
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.ForwardInto(x, y)
			}
		})
	}
}

func BenchmarkLinearInputGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		l := NewLinear(s[0], s[1], rng)
		dy, dx := randVec(rng, s[1]), make([]float64, s[0])
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.InputGrad(dy, dx)
			}
		})
	}
}
