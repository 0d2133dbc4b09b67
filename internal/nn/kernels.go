package nn

import "math"

// The row kernel and the Adam kernel twice: in Go (the path on hosts without
// AVX, and the oracle the assembly is tested against) and as thin wrappers
// over the AVX kernels of kernels_amd64.s, which compute the same bits. The
// methods of nn.go pick one by useAVX; the row kernel adds its ZMM tiles by
// useAVX512.

// rowOp is one call of the row kernel, the product every pass of a Linear is:
//
//	C[a, b] = C₀[a, b] + Σₖ A[a, k]·B[k, b]   for a < na, b < nb, k ascending,
//
// each C entry taking its addends in k order through a separate multiply and
// add, from C₀: C's own value (initC), the vector row (initRow: C₀[a, b] =
// row[b]) or +0 (initZero). Strides are in elements; along b both B and C are
// contiguous. The three passes of a Linear are its shapes:
//
//	forward:     a = row,    b = output, k = input;  A = x,   B = wt, C = pre, from B
//	input-grad:  a = row,    b = input,  k = output; A = dy,  B = W,  C = dx, from +0
//	weight-grad: a = output, b = input,  k = row;    A = dyᵀ, B = x,  C = GW, from GW
//
// and GB is the weight-grad against a B of one 1 (sb = 0): a product with 1
// is exact, so each GB[o] is the plain sum of its dy in row order.
//
// post is applied to C's rows once the product is done, while they are still
// in cache: postReLU writes p = max(C, +0)·m (the activation of a hidden
// layer, whose pre-activation stays in C); postGate rewrites C as C·m, then
// +0 where p ≤ 0 (the gradient of a hidden layer's pre-activation, p that
// pre-activation). m is the dropout mask, nil for none; p and m share C's
// layout.
type rowOp struct {
	a          []float64
	sa, sk     int
	b          []float64
	sb         int
	c          []float64
	sc         int
	na, nb, nk int
	init       int
	row        []float64
	post       int
	p, m       []float64
}

const (
	initC = iota
	initRow
	initZero
)

const (
	postNone = iota
	postReLU
	postGate
)

// one is the B of the bias gradient.
var one = []float64{1}

func (o *rowOp) run() {
	if o.na == 0 || o.nb == 0 {
		return
	}
	if useAVX {
		o.runAVX()
	} else {
		o.runGo()
	}
}

// runGo takes each C row's entries through k together, so every entry still
// receives its addends in k order. The conversion keeps a compiler that
// fuses multiply-adds (arm64's) from changing the rounding.
func (o *rowOp) runGo() {
	for i := 0; i < o.na; i++ {
		c := o.c[i*o.sc : i*o.sc+o.nb]
		switch o.init {
		case initRow:
			copy(c, o.row)
		case initZero:
			clear(c)
		}
		for k := 0; k < o.nk; k++ {
			av := o.a[i*o.sa+k*o.sk]
			b := o.b[k*o.sb : k*o.sb+o.nb]
			for j := range c {
				c[j] += float64(av * b[j])
			}
		}
	}
	if o.post == postNone {
		return
	}
	for i := 0; i < o.na; i++ {
		c, p := o.c[i*o.sc:i*o.sc+o.nb], o.p[i*o.sc:i*o.sc+o.nb]
		var m []float64
		if o.m != nil {
			m = o.m[i*o.sc : i*o.sc+o.nb]
		}
		for j, v := range c {
			if o.post == postReLU {
				act := 0.0
				if v > 0 {
					act = v
				}
				if m != nil {
					act *= m[j]
				}
				p[j] = act
				continue
			}
			if m != nil {
				v *= m[j]
			}
			if p[j] <= 0 {
				v = 0
			}
			c[j] = v
		}
	}
}

// kern is a rowOp as kernels_amd64.s reads it: pointers, strides in bytes.
type kern struct {
	a, b, c, p, m, row *float64
	sa, sk, sb, sc     int
	na, nk             int
	nb                 int // C's row width, in bytes
	init               int
	post               int // postNone, postReLU or postGate, plus kernMask when m is set
	wide               int // non-zero: the ZMM tiles run ahead of the YMM ones
}

const kernMask = 4

func (o *rowOp) runAVX() {
	const f = 8 // bytes per float64
	k := kern{c: &o.c[0], sa: o.sa * f, sk: o.sk * f, sb: o.sb * f, sc: o.sc * f,
		na: o.na, nk: o.nk, nb: o.nb * f, init: o.init, post: o.post}
	if useAVX512 {
		k.wide = 1
	}
	if o.nk > 0 {
		k.a, k.b = &o.a[0], &o.b[0]
	}
	if o.init == initRow {
		k.row = &o.row[0]
	}
	if o.post != postNone {
		k.p = &o.p[0]
		if o.m != nil {
			k.m = &o.m[0]
			k.post |= kernMask
		}
	}
	rowsAVX(&k)
}

// mirror copies rows [lo, hi) of W into columns [lo, hi) of wt.
func (l *Linear) mirror(lo, hi int) {
	for i := 0; i < l.In; i++ {
		col := l.wt[i*l.Out+lo : i*l.Out+hi]
		for k := range col {
			col[k] = l.W[(lo+k)*l.In+i]
		}
	}
}

func (a *Adam) updateGo(p, g, m, v []float64, scale float64) {
	for i := range p {
		gi := g[i] / scale
		m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*gi)
		v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*gi*gi)
		p[i] -= a.LR * (m[i] / a.c1) / (math.Sqrt(v[i]/a.c2) + a.Epsilon)
		g[i] = 0
	}
}

func (a *Adam) updateAVX(p, g, m, v []float64, scale float64) {
	if len(p) == 0 {
		return
	}
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	k := [10]float64{scale, a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, a.LR, a.c1, a.c2, a.Epsilon}
	if frac, exp := math.Frexp(scale); frac == 0.5 && exp > -1021 && exp < 1024 {
		k[9] = math.Ldexp(1, 1-exp) // 1/scale, exactly
	}
	adamAVX(&p[0], &g[0], &m[0], &v[0], len(p), &k)
}
