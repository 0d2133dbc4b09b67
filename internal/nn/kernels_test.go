package nn

import (
	"encoding/binary"
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
					sum += l.W[o*in+i] * xi
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

// Skipping the rows whose output gradient is zero changes nothing, signed
// zeros included: InputGrad and WeightGrad against loops that skip nothing,
// with WeightGrad adding to accumulators that already hold gradients and
// taking the rows in two ranges.
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
		x := randVec(rng, in)
		x[3], x[7] = 0, negZero // ±0 inputs make ±0 products on live rows too

		wantDX := make([]float64, in)
		for o, g := range dy {
			for i := range wantDX {
				wantDX[i] += l.W[o*in+i] * g
			}
		}
		gotDX := randVec(rng, in) // stale contents must not survive
		l.InputGrad(dy, gotDX)
		if !sameBits(gotDX, wantDX) {
			t.Errorf("%s: InputGrad %v, naive %v", name, gotDX, wantDX)
		}

		for pass := 0; pass < 2; pass++ { // from zeroed accumulators, then onto the result
			wantGW := append([]float64(nil), l.GW...)
			wantGB := append([]float64(nil), l.GB...)
			for o, g := range dy {
				wantGB[o] += g
				for i, xi := range x {
					wantGW[o*in+i] += g * xi
				}
			}
			l.WeightGrad(x, dy, 0, 5)
			l.WeightGrad(x, dy, 5, out)
			if !sameBits(l.GW, wantGW) || !sameBits(l.GB, wantGB) {
				t.Errorf("%s pass %d: WeightGrad differs from the naive loop", name, pass)
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

// checkKernels runs the Go and the AVX kernels on one Linear(in, out) whose
// weights, inputs, gradients and optimizer state fill draws, and reports the
// first result that differs in a bit: the forward; for a drawn and an
// all-zero dy, InputGrad over stale dx and WeightGrad onto non-zero
// accumulators in two row ranges; one Adam update of out weights.
func checkKernels(in, out int, fill func([]float64)) error {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		fill(v)
		return v
	}
	l := &Linear{In: in, Out: out, W: vec(in * out), B: vec(out), GW: vec(in * out), GB: vec(out), wt: make([]float64, in*out)}
	l.mirror(0, out)
	x := vec(in)
	yGo, yAVX := vec(out), vec(out)
	l.forwardGo(x, yGo)
	l.forwardAVX(x, yAVX)
	if !sameBits(yGo, yAVX) {
		return fmt.Errorf("forward: Go %v, AVX %v", yGo, yAVX)
	}
	for _, dy := range [][]float64{vec(out), make([]float64, out)} {
		dxGo, dxAVX := vec(in), vec(in)
		l.inputGradGo(dy, dxGo)
		l.inputGradAVX(dy, dxAVX)
		if !sameBits(dxGo, dxAVX) {
			return fmt.Errorf("InputGrad(dy=%v): Go %v, AVX %v", dy, dxGo, dxAVX)
		}
		gw, gb := append([]float64(nil), l.GW...), append([]float64(nil), l.GB...)
		l.weightGradGo(x, dy, 0, out/2)
		l.weightGradGo(x, dy, out/2, out)
		wantGW, wantGB := l.GW, l.GB
		l.GW, l.GB = gw, gb
		l.weightGradAVX(x, dy, 0, out/2)
		l.weightGradAVX(x, dy, out/2, out)
		if !sameBits(l.GW, wantGW) || !sameBits(l.GB, wantGB) {
			return fmt.Errorf("WeightGrad(dy=%v) differs", dy)
		}
	}
	a := &Adam{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	a.Next()
	a.Next()
	state := [][]float64{vec(out), vec(out), vec(out), vec(out)} // p, g, m, v
	var twin [][]float64
	for _, s := range state {
		twin = append(twin, append([]float64(nil), s...))
	}
	a.updateGo(state[0], state[1], state[2], state[3], 32)
	a.updateAVX(twin[0], twin[1], twin[2], twin[3], 32)
	for i, s := range state {
		if !sameBits(s, twin[i]) {
			return fmt.Errorf("Adam: vector %d differs: Go %v, AVX %v", i, s, twin[i])
		}
	}
	return nil
}

// The AVX kernels are the Go kernels to the bit for every shape up to 130 ×
// 130: every tile and tail of the forward's 16/4/1 outputs, of the gradient
// kernels' 4/1 inputs, and of InputGrad's groups of four live rows.
func TestAVXKernelsMatchGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host")
	}
	rng := rand.New(rand.NewSource(13))
	pool := make([]float64, 1<<16)
	for i := range pool {
		pool[i] = special(rng)
	}
	fill := func(v []float64) { copy(v, pool[rng.Intn(len(pool)-len(v)+1):]) }
	for in := 1; in <= 130; in++ {
		for out := 1; out <= 130; out++ {
			if err := checkKernels(in, out, fill); err != nil {
				t.Fatalf("Linear(%d,%d): %v", in, out, err)
			}
		}
	}
}

// FuzzLinearKernels is TestAVXKernelsMatchGo on fuzzed shapes and values.
// Values come from the input's bytes while they last; NaN and ±Inf, which no
// trained weight holds and whose payloads the kernels do not promise to keep,
// are replaced by draws.
func FuzzLinearKernels(f *testing.F) {
	f.Add(uint8(20), uint8(20), int64(1), []byte{})
	f.Add(uint8(129), uint8(16), int64(2), make([]byte, 64))
	f.Fuzz(func(t *testing.T, in, out uint8, seed int64, raw []byte) {
		if !useAVX {
			t.Skip("no AVX on this host")
		}
		rng := rand.New(rand.NewSource(seed))
		fill := func(v []float64) {
			for i := range v {
				v[i] = special(rng)
				if len(raw) >= 8 {
					if u := math.Float64frombits(binary.LittleEndian.Uint64(raw)); !math.IsNaN(u) && !math.IsInf(u, 0) {
						v[i] = u
					}
					raw = raw[8:]
				}
			}
		}
		if err := checkKernels(int(in)%130+1, int(out)%130+1, fill); err != nil {
			t.Fatal(err)
		}
	})
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
