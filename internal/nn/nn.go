// Package nn is a small, dependency-free neural-network library: dense
// layers with ReLU and dropout, multi-layer perceptrons, the Adam optimizer,
// and the paper's asymmetric Hüber loss on percentage error (Eq. 4).
//
// Backpropagation is explicit rather than autodiff, with one forward and one
// backward for inference and training alike, and layer-major: a Rows tape
// holds N evaluations of an MLP (the MPNN applies the same γ/φ networks at
// every node and edge of every sample in a chunk), each layer's inputs,
// outputs and gradients for all of them as one matrix, so a layer is one
// kernel call over N rows. Forward and Backward only read the weights;
// Backward is what makes the configuration solver (§3.5) possible: Eq. 5 is
// minimized by gradient descent *through* the trained network onto its
// resource inputs. WeightGrad, the other half of backward, accumulates a
// finished tape into a range of parameter rows.
//
// Order contract: every accumulator (an output's sum, an input gradient, a
// GW/GB entry) receives the same addends in the same order however the
// kernels are blocked or the rows divided, so results are schedule-independent:
// outputs sum their inputs in ascending order, input gradients their outputs,
// and GW/GB entries their rows. It holds across implementations too: where the
// CPU has AVX the row and Adam kernels run in assembly, one vector lane per
// accumulator, fed by separate multiplies and adds (no fused multiply-add), so
// they compute the bits of the Go kernels that run everywhere else
// (kernels.go), whose products are converted before they are added
// (float64(x*y)) so that no compiler fuses them either.
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
// without allocating: the one-row case of the forward row kernel. It reads
// only the weights, making it safe for concurrent use on a model that is not
// being mutated.
func (l *Linear) ForwardInto(x, y []float64) {
	if len(x) != l.In || len(y) != l.Out {
		panic(fmt.Sprintf("nn: Linear(%d,%d) ForwardInto got x=%d y=%d", l.In, l.Out, len(x), len(y)))
	}
	l.forwardRows(x, y, nil, nil, 1)
}

// InputGrad computes dx = Wᵀ·dy into the caller-provided dx (len In), the
// one-row case of the input-gradient row kernel. It touches neither the
// parameter gradient accumulators GW/GB nor any other mutable layer state, so
// concurrent calls on one layer are safe.
func (l *Linear) InputGrad(dy, dx []float64) {
	if len(dy) != l.Out || len(dx) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d,%d) InputGrad got dy=%d dx=%d", l.In, l.Out, len(dy), len(dx)))
	}
	l.inputGradRows(dy, dx, nil, nil, 1)
}

// forwardRows runs n rows of x (n×In) through the layer: pre[r] = B + W·x[r]
// (n×Out), each output B[o] + Σᵢ W[o,i]·x[r,i] taken in i order. With act set
// the layer is a hidden one and act[r] = max(pre[r], +0)·mask[r], mask nil
// meaning no dropout.
func (l *Linear) forwardRows(x, pre, act, mask []float64, n int) {
	op := l.forwardOp(x, pre, act, mask, n)
	op.run()
}

// forwardOp returns forwardRows as an op.
func (l *Linear) forwardOp(x, pre, act, mask []float64, n int) rowOp {
	op := rowOp{a: x, sa: l.In, sk: 1, b: l.wt, sb: l.Out, c: pre, sc: l.Out, na: n, nb: l.Out, nk: l.In, init: initRow, row: l.B}
	if act != nil {
		op.post, op.p, op.m = postReLU, act, mask
	}
	return op
}

// inputGradRows computes dx[r] = Wᵀ·dy[r] for n rows, each dx[r,i] summing
// over o in ascending order from +0. With pre set (the pre-activation of the
// hidden layer feeding this one, n×In) it returns that layer's output
// gradient instead: dx·mask, +0 wherever pre ≤ 0.
func (l *Linear) inputGradRows(dy, dx, pre, mask []float64, n int) {
	op := l.inputGradOp(dy, dx, pre, mask, n)
	op.run()
}

// inputGradOp returns inputGradRows as an op.
func (l *Linear) inputGradOp(dy, dx, pre, mask []float64, n int) rowOp {
	op := rowOp{a: dy, sa: l.Out, sk: 1, b: l.W, sb: l.In, c: dx, sc: l.In, na: n, nb: l.In, nk: l.Out, init: initZero}
	if pre != nil {
		op.post, op.p, op.m = postGate, pre, mask
	}
	return op
}

// weightGradRows accumulates rows [lo, hi) of the parameter gradients over n
// rows of input x and output gradient dy: GW[o,:] += Σᵣ dy[r,o]·x[r,:] and
// GB[o] += Σᵣ dy[r,o], r ascending. Calls on
// disjoint row ranges touch disjoint memory, so they may run concurrently.
func (l *Linear) weightGradRows(x, dy []float64, n, lo, hi int) {
	ops := l.weightGradOps(x, dy, n, lo, hi)
	ops[0].run()
	ops[1].run()
}

// weightGradOps returns weightGradRows as two ops, GW's and GB's.
func (l *Linear) weightGradOps(x, dy []float64, n, lo, hi int) [2]rowOp {
	gw := rowOp{a: dy[lo:], sa: 1, sk: l.Out, b: x, sb: l.In, c: l.GW[lo*l.In:], sc: l.In, na: hi - lo, nb: l.In, nk: n}
	gb := gw
	gb.b, gb.sb, gb.c, gb.sc, gb.nb = one, 0, l.GB[lo:], 1, 1
	return [2]rowOp{gw, gb}
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

// Rows is the tape of up to N evaluations of an MLP, layer-major: each
// layer's inputs, outputs and gradients for all N rows form one row-major
// matrix, so one kernel call takes every row through a layer. Forward fills
// it, Backward adds the gradients, and WeightGrad accumulates the parameter
// gradients from both. It is sized for one architecture, reused across calls,
// and safe for concurrent passes over disjoint row ranges.
type Rows struct {
	In   []float64   // N × Layers[0].In: the inputs
	DOut []float64   // N × the last layer's Out: the gradient of the outputs
	pre  [][]float64 // per layer: N × Out pre-activations (the last one is the output)
	act  [][]float64 // per hidden layer: N × Out post-ReLU, post-dropout outputs
	mask [][]float64 // per hidden layer: dropout scale factors; nil = no dropout
	d    [][]float64 // per layer: N × In, the gradient of its input; d[li+1] is hidden layer li's output gradient
}

// NewRows sizes a tape of n rows for m. In and DOut are the caller's
// matrices when given (another tape's output, say), allocated when nil. With
// train set and a dropout network it carries masks, which Forward then
// applies: fill them with DrawMasks before every Forward.
func (m *MLP) NewRows(n int, in, dOut []float64, train bool) *Rows {
	last := len(m.Layers) - 1
	if in == nil {
		in = make([]float64, n*m.Layers[0].In)
	}
	if dOut == nil {
		dOut = make([]float64, n*m.Layers[last].Out)
	}
	t := &Rows{In: in, DOut: dOut}
	for li, l := range m.Layers {
		t.pre = append(t.pre, make([]float64, n*l.Out))
		t.d = append(t.d, make([]float64, n*l.In))
		if li == last {
			break
		}
		t.act = append(t.act, make([]float64, n*l.Out))
		if train && m.Dropout > 0 {
			t.mask = append(t.mask, make([]float64, n*l.Out))
		}
	}
	return t
}

// Out is the N × Out matrix of outputs Forward writes.
func (t *Rows) Out() []float64 { return t.pre[len(t.pre)-1] }

// DIn is the N × In matrix of input gradients Backward writes.
func (t *Rows) DIn() []float64 { return t.d[0] }

// DrawMasks samples row r's dropout masks from rng, one Float64 per hidden
// unit in layer order — inverted dropout, so inference needs no rescaling. It
// draws nothing for a tape without masks.
func (m *MLP) DrawMasks(t *Rows, r int, rng *rand.Rand) {
	keep := 1 - m.Dropout
	for li, mask := range t.mask {
		w := m.Layers[li].Out
		for i := range mask[r*w : (r+1)*w] {
			mask[r*w+i] = 0
			if rng.Float64() < keep {
				mask[r*w+i] = 1 / keep
			}
		}
	}
}

// rows returns rows [r0, r1) of a matrix of width w; nil stays nil.
func rows(v []float64, w, r0, r1 int) []float64 {
	if v == nil {
		return nil
	}
	return v[r0*w : r1*w]
}

func (t *Rows) maskOf(li int) []float64 {
	if t.mask == nil {
		return nil
	}
	return t.mask[li]
}

// Forward runs rows [r0, r1) of t.In through the network, one kernel call per
// layer; the outputs are in t.Out().
func (m *MLP) Forward(t *Rows, r0, r1 int) {
	x := rows(t.In, m.Layers[0].In, r0, r1)
	last := len(m.Layers) - 1
	for li, l := range m.Layers {
		pre := rows(t.pre[li], l.Out, r0, r1)
		if li == last {
			l.forwardRows(x, pre, nil, nil, r1-r0)
			return
		}
		act := rows(t.act[li], l.Out, r0, r1)
		l.forwardRows(x, pre, act, rows(t.maskOf(li), l.Out, r0, r1), r1-r0)
		x = act
	}
}

// Backward propagates rows [r0, r1) of t.DOut back through the evaluation
// Forward recorded, one kernel call per layer, leaving every layer's output
// gradient for WeightGrad and, with input set, the input gradients in
// t.DIn(). It only reads the weights.
func (m *MLP) Backward(t *Rows, r0, r1 int, input bool) {
	last := len(m.Layers) - 1
	dy := rows(t.DOut, m.Layers[last].Out, r0, r1)
	for li := last; li >= 0; li-- {
		l := m.Layers[li]
		if li == 0 && !input {
			return
		}
		var pre, mask []float64
		if li > 0 {
			pre, mask = rows(t.pre[li-1], l.In, r0, r1), rows(t.maskOf(li-1), l.In, r0, r1)
		}
		dx := rows(t.d[li], l.In, r0, r1)
		l.inputGradRows(dy, dx, pre, mask, r1-r0)
		dy = dx
	}
}

// WeightGrad accumulates rows [lo, hi) of layer li's parameter gradients over
// the first n rows of a tape Forward and Backward filled, rows in order.
func (m *MLP) WeightGrad(t *Rows, n, li, lo, hi int) {
	x, dy := t.In, t.DOut
	if li > 0 {
		x = t.act[li-1]
	}
	if li < len(m.Layers)-1 {
		dy = t.d[li+1]
	}
	m.Layers[li].weightGradRows(x, dy, n, lo, hi)
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
		a.m[i] = float64(a.Beta1*a.m[i]) + float64((1-a.Beta1)*g[i])
		a.v[i] = float64(a.Beta2*a.v[i]) + float64((1-a.Beta2)*g[i]*g[i])
		x[i] -= a.LR * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.Epsilon)
	}
}
