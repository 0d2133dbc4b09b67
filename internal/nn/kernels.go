package nn

import "math"

// The Linear and Adam kernels twice: in Go (the path on hosts without AVX, and
// the oracle the assembly is tested against) and as thin wrappers over the AVX
// kernels of kernels_amd64.s, which compute the same bits. The exported
// methods in nn.go pick one by useAVX.

// mirror copies rows [lo, hi) of W into columns [lo, hi) of wt.
func (l *Linear) mirror(lo, hi int) {
	for i := 0; i < l.In; i++ {
		col := l.wt[i*l.Out+lo : i*l.Out+hi]
		for k := range col {
			col[k] = l.W[(lo+k)*l.In+i]
		}
	}
}

// forwardGo lets four output rows share one pass over x — four independent
// add chains instead of one serial one — and each row's sum is still
// B[o] + Σᵢ row[i]·x[i] taken in i order.
func (l *Linear) forwardGo(x, y []float64) {
	n := l.In
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		r0 := l.W[o*n : (o+1)*n][:len(x)]
		r1 := l.W[(o+1)*n : (o+2)*n][:len(x)]
		r2 := l.W[(o+2)*n : (o+3)*n][:len(x)]
		r3 := l.W[(o+3)*n : (o+4)*n][:len(x)]
		s0, s1, s2, s3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*n : (o+1)*n][:len(x)]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
}

// forwardAVX reads the mirror, whose rows hold one input's weights for every
// output, so a vector lane is an output.
func (l *Linear) forwardAVX(x, y []float64) {
	if l.In == 0 || l.Out == 0 {
		l.forwardGo(x, y)
		return
	}
	fwdAVX(&l.wt[0], &l.B[0], &x[0], &y[0], l.In, l.Out)
}

// inputGradGo applies the rows with a gradient four per pass over dx; each
// dx[i] still takes them in ascending order.
func (l *Linear) inputGradGo(dy, dx []float64) {
	for i := range dx {
		dx[i] = 0
	}
	n := l.In
	var live [4]int // rows with a gradient, waiting to be applied together
	k := 0
	for o, g := range dy {
		if g == 0 {
			continue
		}
		live[k] = o
		if k++; k < len(live) {
			continue
		}
		k = 0
		g0, g1, g2, g3 := dy[live[0]], dy[live[1]], dy[live[2]], g
		r0 := l.W[live[0]*n : (live[0]+1)*n][:len(dx)]
		r1 := l.W[live[1]*n : (live[1]+1)*n][:len(dx)]
		r2 := l.W[live[2]*n : (live[2]+1)*n][:len(dx)]
		r3 := l.W[o*n : (o+1)*n][:len(dx)]
		for i := range dx {
			dx[i] = dx[i] + r0[i]*g0 + r1[i]*g1 + r2[i]*g2 + r3[i]*g3
		}
	}
	for _, o := range live[:k] {
		g := dy[o]
		row := l.W[o*n : (o+1)*n][:len(dx)]
		for i := range dx {
			dx[i] += row[i] * g
		}
	}
}

func (l *Linear) inputGradAVX(dy, dx []float64) {
	if l.In == 0 || l.Out == 0 {
		l.inputGradGo(dy, dx)
		return
	}
	igradAVX(&l.W[0], &dy[0], &dx[0], l.In, l.Out)
}

func (l *Linear) weightGradGo(x, dy []float64, lo, hi int) {
	for o := lo; o < hi; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		l.GB[o] += g
		grow := l.GW[o*l.In : (o+1)*l.In][:len(x)]
		for i, xi := range x {
			grow[i] += g * xi
		}
	}
}

func (l *Linear) weightGradAVX(x, dy []float64, lo, hi int) {
	if l.In == 0 || lo >= hi {
		l.weightGradGo(x, dy, lo, hi)
		return
	}
	wgradAVX(&l.GW[0], &l.GB[0], &x[0], &dy[0], l.In, lo, hi)
}

func (a *Adam) updateGo(p, g, m, v []float64, scale float64) {
	for i := range p {
		gi := g[i] / scale
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		p[i] -= a.LR * (m[i] / a.c1) / (math.Sqrt(v[i]/a.c2) + a.Epsilon)
		g[i] = 0
	}
}

func (a *Adam) updateAVX(p, g, m, v []float64, scale float64) {
	if len(p) == 0 {
		return
	}
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	k := [9]float64{scale, a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, a.LR, a.c1, a.c2, a.Epsilon}
	adamAVX(&p[0], &g[0], &m[0], &v[0], len(p), &k)
}
