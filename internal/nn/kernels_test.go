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
