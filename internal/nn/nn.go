// Package nn is a small, dependency-free neural-network library: dense
// layers with ReLU and dropout, multi-layer perceptrons, the Adam optimizer,
// and the paper's asymmetric Hüber loss on percentage error (Eq. 4).
//
// Backpropagation is explicit rather than autodiff, with one forward and one
// backward for inference and training alike. An Invocation holds the buffers
// of one evaluation of an MLP; one module can be invoked many times within a
// sample (the MPNN applies the same γ/φ networks at every node and
// message-passing step) and each invocation gets its own. Eval and InputGrad
// only read the weights; InputGrad is what makes the configuration solver
// (§3.5) possible: Eq. 5 is minimized by gradient descent *through* the
// trained network onto its resource inputs. WeightGrad, the other half of
// backward, replays a finished invocation into a range of parameter rows.
//
// Order contract: every accumulator (an output's sum, an input gradient, a
// GW/GB entry) receives the same addends in the same order however the
// kernels are blocked or the rows divided, so results are schedule-independent.
// It holds across implementations too: where the CPU has AVX the Linear and
// Adam kernels run in assembly, one vector lane per accumulator, fed by
// separate multiplies and adds (no fused multiply-add), so they compute the
// bits of the Go kernels that run everywhere else (kernels.go).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear is a dense layer y = W·x + b with He-initialized weights.
type Linear struct {
	In, Out int
	W       []float64 // Out×In, row-major
	B       []float64
	GW      []float64 // gradient accumulators
	GB      []float64

	// wt mirrors W column-major, In×Out (wt[i*Out+o] == W[o*In+i]), for the
	// AVX forward, whose vector lanes run across outputs. Every writer of W
	// refreshes it: NewLinear, SetParams and Adam.StepRows. Code outside this
	// package writes weights through SetParams only.
	wt []float64
}

// NewLinear returns a dense layer with He initialization drawn from rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		GW: make([]float64, in*out),
		GB: make([]float64, out),
		wt: make([]float64, in*out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range l.W {
		l.W[i] = rng.NormFloat64() * std
	}
	l.mirror(0, out)
	return l
}

// SetParams copies w and b into the layer's weights and biases.
func (l *Linear) SetParams(w, b []float64) {
	copy(l.W, w)
	copy(l.B, b)
	l.mirror(0, l.Out)
}

// MirrorFresh reports whether the forward's column-major copy of W equals
// W's transpose to the bit, the invariant every writer of W keeps.
func (l *Linear) MirrorFresh() bool {
	if len(l.wt) != len(l.W) {
		return false
	}
	for o := 0; o < l.Out; o++ {
		for i := 0; i < l.In; i++ {
			if math.Float64bits(l.wt[i*l.Out+o]) != math.Float64bits(l.W[o*l.In+i]) {
				return false
			}
		}
	}
	return true
}

// ForwardInto computes y = W·x + b into the caller-provided y (len Out)
// without allocating. Each y[o] is B[o] + Σᵢ W[o,i]·x[i] taken in i order,
// whichever kernel runs, so their blocking does not change a bit of the
// result. It reads only the weights, making it safe for concurrent use on a
// model that is not being mutated.
func (l *Linear) ForwardInto(x, y []float64) {
	if len(x) != l.In || len(y) != l.Out {
		panic(fmt.Sprintf("nn: Linear(%d,%d) ForwardInto got x=%d y=%d", l.In, l.Out, len(x), len(y)))
	}
	if useAVX {
		l.forwardAVX(x, y)
	} else {
		l.forwardGo(x, y)
	}
}

// InputGrad computes dx = Wᵀ·dy into the caller-provided dx (len In)
// WITHOUT touching the parameter gradient accumulators GW/GB: it needs
// neither the forward input x nor any mutable layer state, so concurrent
// invocations on one layer are safe. Each dx[i] accumulates over o in
// ascending order.
//
// Rows with dy[o] == 0 (most of a dropped-out ReLU layer) are skipped. That
// is exact for finite weights: their products are ±0, and an accumulator
// that starts at +0 can never become −0 under round-to-nearest (x + (−x) and
// (+0) + (−0) are both +0), so adding a ±0 is the identity.
func (l *Linear) InputGrad(dy, dx []float64) {
	if len(dy) != l.Out || len(dx) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d,%d) InputGrad got dy=%d dx=%d", l.In, l.Out, len(dy), len(dx)))
	}
	if useAVX {
		l.inputGradAVX(dy, dx)
	} else {
		l.inputGradGo(dy, dx)
	}
}

// WeightGrad accumulates rows [lo, hi) of the parameter gradients of one
// invocation: GW[o,:] += dy[o]·x and GB[o] += dy[o], for the input x the
// layer saw and the gradient dy of its output. Calls on disjoint row ranges
// touch disjoint memory, so they may run concurrently; rows with dy[o] == 0
// are skipped, which is exact for finite x by the argument at InputGrad.
func (l *Linear) WeightGrad(x, dy []float64, lo, hi int) {
	if len(x) != l.In || len(dy) != l.Out || lo < 0 || hi > l.Out {
		panic(fmt.Sprintf("nn: Linear(%d,%d) WeightGrad got x=%d dy=%d rows [%d, %d)", l.In, l.Out, len(x), len(dy), lo, hi))
	}
	if useAVX {
		l.weightGradAVX(x, dy, lo, hi)
	} else {
		l.weightGradGo(x, dy, lo, hi)
	}
}

// MLP is a stack of Linear layers with ReLU activations and dropout on
// every hidden layer (never on the output layer), per §4 of the paper.
type MLP struct {
	Layers  []*Linear
	Dropout float64 // drop probability during training
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [4, 20, 20,
// 1] is two hidden layers of 20 units.
func NewMLP(sizes []int, dropout float64, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Dropout: dropout}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Invocation holds the buffers of one evaluation of an MLP: what Eval
// computed, what InputGrad needs to undo it, and what WeightGrad needs to
// replay it into the parameter gradients. It is sized for one architecture,
// reused across calls, and not safe for concurrent use.
type Invocation struct {
	x    []float64   // Eval's input (aliased: the caller keeps it unchanged until WeightGrad)
	dy   []float64   // InputGrad's upstream gradient (aliased likewise)
	pre  [][]float64 // per layer: pre-activation output (last = the MLP's output)
	act  [][]float64 // per hidden layer: post-ReLU, post-dropout output
	din  [][]float64 // per layer: gradient of its input; din[li+1] is layer li's output gradient
	mask [][]float64 // per hidden layer: dropout scale factors; nil = no dropout
}

// NewInvocation sizes an Invocation for m. With train set and a dropout
// network it carries masks, which Eval then applies: fill them with
// DrawMasks before every Eval.
func (m *MLP) NewInvocation(train bool) *Invocation {
	v := &Invocation{}
	last := len(m.Layers) - 1
	for li, l := range m.Layers {
		v.pre = append(v.pre, make([]float64, l.Out))
		v.din = append(v.din, make([]float64, l.In))
		if li == last {
			break
		}
		v.act = append(v.act, make([]float64, l.Out))
		if train && m.Dropout > 0 {
			v.mask = append(v.mask, make([]float64, l.Out))
		}
	}
	return v
}

// DrawMasks samples v's dropout masks from rng, one Float64 per hidden unit
// in layer order — inverted dropout, so inference needs no rescaling. It
// draws nothing for an Invocation without masks.
func (m *MLP) DrawMasks(v *Invocation, rng *rand.Rand) {
	keep := 1 - m.Dropout
	for _, mask := range v.mask {
		for i := range mask {
			mask[i] = 0
			if rng.Float64() < keep {
				mask[i] = 1 / keep
			}
		}
	}
}

// Eval runs the network on x, writing every intermediate into v, and
// returns the output — a buffer of v, valid until its next Eval.
func (m *MLP) Eval(v *Invocation, x []float64) []float64 {
	v.x = x
	cur := x
	last := len(m.Layers) - 1
	for li, l := range m.Layers {
		l.ForwardInto(cur, v.pre[li])
		if li == last {
			break
		}
		act := v.act[li]
		for i, p := range v.pre[li] {
			act[i] = 0
			if p > 0 {
				act[i] = p
			}
		}
		if v.mask != nil {
			for i, s := range v.mask[li] {
				act[i] *= s
			}
		}
		cur = act
	}
	return v.pre[last]
}

// InputGrad backpropagates dy through the evaluation recorded in v and
// returns dL/dx — a buffer of v, valid until its next InputGrad. It never
// touches parameter gradient accumulators, and dy itself is only read.
func (m *MLP) InputGrad(v *Invocation, dy []float64) []float64 {
	v.dy = dy
	cur := dy
	last := len(m.Layers) - 1
	for li := last; li >= 0; li-- {
		if li != last {
			// Undo dropout and ReLU. cur is v.din[li+1] here, so the
			// in-place masking never writes into the caller's dy.
			if v.mask != nil {
				for i, s := range v.mask[li] {
					cur[i] *= s
				}
			}
			for i, p := range v.pre[li] {
				if p <= 0 {
					cur[i] = 0
				}
			}
		}
		m.Layers[li].InputGrad(cur, v.din[li])
		cur = v.din[li]
	}
	return cur
}

// WeightGrad accumulates rows [lo, hi) of layer li's parameter gradients
// from the evaluation and InputGrad recorded in v.
func (m *MLP) WeightGrad(v *Invocation, li, lo, hi int) {
	x, dy := v.x, v.dy
	if li > 0 {
		x = v.act[li-1]
	}
	if li < len(m.Layers)-1 {
		dy = v.din[li+1]
	}
	m.Layers[li].WeightGrad(x, dy, lo, hi)
}

// Adam implements the Adam optimizer (Kingma & Ba [45]), the paper's choice
// for both model training and the configuration solver. Its moments are
// indexed by the layer's position in the list it was built for.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	layers []*Linear
	t      int
	c1, c2 float64     // bias corrections of step t
	mw, vw [][]float64 // per layer
	mb, vb [][]float64
}

// NewAdam returns an Adam optimizer over layers with standard β₁=0.9,
// β₂=0.999.
func NewAdam(lr float64, layers []*Linear) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, layers: layers}
	for _, l := range layers {
		a.mw = append(a.mw, make([]float64, len(l.W)))
		a.vw = append(a.vw, make([]float64, len(l.W)))
		a.mb = append(a.mb, make([]float64, len(l.B)))
		a.vb = append(a.vb, make([]float64, len(l.B)))
	}
	return a
}

// Next begins an update: one step is Next followed by StepRows over every row
// of every layer, in any order and on any number of goroutines, since the
// update is element-wise.
func (a *Adam) Next() {
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// StepRows updates rows [lo, hi) of layer li from their accumulated gradients
// (scaled by 1/scale, e.g. the batch size), zeroes the gradients and
// refreshes the forward's mirror of those rows.
func (a *Adam) StepRows(li, lo, hi int, scale float64) {
	l := a.layers[li]
	w0, w1 := lo*l.In, hi*l.In
	a.update(l.W[w0:w1], l.GW[w0:w1], a.mw[li][w0:w1], a.vw[li][w0:w1], scale)
	a.update(l.B[lo:hi], l.GB[lo:hi], a.mb[li][lo:hi], a.vb[li][lo:hi], scale)
	l.mirror(lo, hi)
}

func (a *Adam) update(p, g, m, v []float64, scale float64) {
	if useAVX {
		a.updateAVX(p, g, m, v, scale)
	} else {
		a.updateGo(p, g, m, v, scale)
	}
}

// VecAdam is Adam over a plain vector — used by the configuration solver,
// whose variables are the per-microservice CPU quotas rather than network
// weights.
type VecAdam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t    int
	m, v []float64
}

// NewVecAdam returns a vector Adam optimizer for n variables.
func NewVecAdam(lr float64, n int) *VecAdam {
	return &VecAdam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

// Step updates x in place given gradient g.
func (a *VecAdam) Step(x, g []float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range x {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g[i]
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g[i]*g[i]
		x[i] -= a.LR * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.Epsilon)
	}
}
