package gnn

// The training path as it was before the batched kernel replaced it, kept
// verbatim as the oracle: a per-sample forward that allocates a tape per
// network invocation, a backward that accumulates parameter gradients as it
// goes, Adam with its moments in maps, and the two copies of the loop
// (Model.Train, Partitioned.Train). Only the receivers changed: what used to
// be methods of nn.Linear, nn.MLP and nn.Adam are functions here. Validation
// reads the reference forward, not Predict, whose kernels are under test (and
// read the forward's mirror of W, which this loop's Adam does not refresh).

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"graf/internal/nn"
)

func refLinearForward(l *nn.Linear, x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d,%d) got input of size %d", l.In, l.Out, len(x)))
	}
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += float64(row[i] * xi)
		}
		y[o] = sum
	}
	return y
}

func refLinearBackward(l *nn.Linear, x, dy []float64) []float64 {
	dx := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		l.GB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GW[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			grow[i] += float64(g * xi)
			dx[i] += float64(row[i] * g)
		}
	}
	return dx
}

func refZeroGrad(l *nn.Linear) {
	for i := range l.GW {
		l.GW[i] = 0
	}
	for i := range l.GB {
		l.GB[i] = 0
	}
}

type refTape struct {
	inputs [][]float64 // input to each layer
	preact [][]float64 // pre-activation output of each hidden layer
	masks  [][]float64 // dropout masks (scale factors), nil when not training
}

func refMLPForward(m *nn.MLP, x []float64, train bool, rng *rand.Rand) ([]float64, *refTape) {
	t := &refTape{}
	cur := x
	last := len(m.Layers) - 1
	for li, l := range m.Layers {
		t.inputs = append(t.inputs, cur)
		y := refLinearForward(l, cur)
		if li == last {
			t.preact = append(t.preact, nil)
			t.masks = append(t.masks, nil)
			cur = y
			break
		}
		t.preact = append(t.preact, y)
		act := make([]float64, len(y))
		var mask []float64
		if train && m.Dropout > 0 {
			mask = make([]float64, len(y))
			keep := 1 - m.Dropout
			for i := range mask {
				if rng.Float64() < keep {
					mask[i] = 1 / keep
				}
			}
		}
		for i, v := range y {
			if v > 0 {
				act[i] = v
			}
			if mask != nil {
				act[i] *= mask[i]
			}
		}
		t.masks = append(t.masks, mask)
		cur = act
	}
	return cur, t
}

func refMLPBackward(m *nn.MLP, t *refTape, dy []float64) []float64 {
	cur := dy
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li != len(m.Layers)-1 {
			// Undo dropout and ReLU.
			pre := t.preact[li]
			mask := t.masks[li]
			d := make([]float64, len(cur))
			for i := range cur {
				g := cur[i]
				if mask != nil {
					g *= mask[i]
				}
				if pre[i] <= 0 {
					g = 0
				}
				d[i] = g
			}
			cur = d
		}
		cur = refLinearBackward(m.Layers[li], t.inputs[li], cur)
	}
	return cur
}

type refAdam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mw map[*nn.Linear][]float64
	vw map[*nn.Linear][]float64
	mb map[*nn.Linear][]float64
	vb map[*nn.Linear][]float64
}

func newRefAdam(lr float64) *refAdam {
	return &refAdam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		mw: map[*nn.Linear][]float64{}, vw: map[*nn.Linear][]float64{},
		mb: map[*nn.Linear][]float64{}, vb: map[*nn.Linear][]float64{},
	}
}

func (a *refAdam) Step(layers []*nn.Linear, scale float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, l := range layers {
		if a.mw[l] == nil {
			a.mw[l] = make([]float64, len(l.W))
			a.vw[l] = make([]float64, len(l.W))
			a.mb[l] = make([]float64, len(l.B))
			a.vb[l] = make([]float64, len(l.B))
		}
		upd := func(p, g, m, v []float64) {
			for i := range p {
				gi := g[i] / scale
				m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*gi)
				v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*gi*gi)
				p[i] -= a.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Epsilon)
			}
		}
		upd(l.W, l.GW, a.mw[l], a.vw[l])
		upd(l.B, l.GB, a.mb[l], a.vb[l])
		refZeroGrad(l)
	}
}

type fwdState struct {
	x          [][]float64
	embs       [][][]float64 // embs[k][i]: k=0 is x
	gammaTapes [][]*refTape  // [k][i]
	phiTapes   [][][]*refTape
	readIn     []float64
	readTape   *refTape
	y          float64
}

func (m *Model) features(load, quota []float64) [][]float64 {
	if len(load) != m.Cfg.Nodes || len(quota) != m.Cfg.Nodes {
		panic(fmt.Sprintf("gnn: expected %d nodes, got load=%d quota=%d", m.Cfg.Nodes, len(load), len(quota)))
	}
	x := make([][]float64, m.Cfg.Nodes)
	for i := range x {
		x[i] = []float64{load[i] * m.Cfg.LoadScale, quota[i] * m.Cfg.QuotaScale}
	}
	return x
}

func (m *Model) forward(load, quota []float64, train bool, rng *rand.Rand) *fwdState {
	st := &fwdState{x: m.features(load, quota)}
	if !m.Cfg.UseMPNN {
		st.readIn = make([]float64, 0, m.Cfg.Nodes*2)
		for _, xi := range st.x {
			st.readIn = append(st.readIn, xi...)
		}
		out, tape := refMLPForward(m.readout, st.readIn, train, rng)
		st.readTape, st.y = tape, out[0]
		return st
	}
	st.embs = append(st.embs, st.x)
	cur := st.x
	for k := 0; k < m.Cfg.Steps; k++ {
		next := make([][]float64, m.Cfg.Nodes)
		kGamma := make([]*refTape, m.Cfg.Nodes)
		kPhi := make([][]*refTape, m.Cfg.Nodes)
		for i := 0; i < m.Cfg.Nodes; i++ {
			msg := make([]float64, m.Cfg.Embed)
			for _, j := range m.Cfg.Parents[i] {
				out, tape := refMLPForward(m.phi[k], cur[j], train, rng)
				kPhi[i] = append(kPhi[i], tape)
				for d, v := range out {
					msg[d] += v
				}
			}
			in := make([]float64, 0, 2+m.Cfg.Embed)
			in = append(in, st.x[i]...)
			in = append(in, msg...)
			out, tape := refMLPForward(m.gamma[k], in, train, rng)
			kGamma[i] = tape
			next[i] = out
		}
		st.gammaTapes = append(st.gammaTapes, kGamma)
		st.phiTapes = append(st.phiTapes, kPhi)
		st.embs = append(st.embs, next)
		cur = next
	}
	st.readIn = make([]float64, 0, m.Cfg.Nodes*m.Cfg.Embed)
	for _, e := range cur {
		st.readIn = append(st.readIn, e...)
	}
	out, tape := refMLPForward(m.readout, st.readIn, train, rng)
	st.readTape, st.y = tape, out[0]
	return st
}

// backward accumulates parameter gradients for upstream gradient dy and
// returns the gradient with respect to each node's (load, quota) features
// in *unscaled* units (req/s, millicores).
func (m *Model) backward(st *fwdState, dy float64) (dLoad, dQuota []float64) {
	dLoad = make([]float64, m.Cfg.Nodes)
	dQuota = make([]float64, m.Cfg.Nodes)
	dRead := refMLPBackward(m.readout, st.readTape, []float64{dy})
	addX := func(i int, d []float64) {
		dLoad[i] += float64(d[0] * m.Cfg.LoadScale)
		dQuota[i] += float64(d[1] * m.Cfg.QuotaScale)
	}
	if !m.Cfg.UseMPNN {
		for i := 0; i < m.Cfg.Nodes; i++ {
			addX(i, dRead[i*2:i*2+2])
		}
		return dLoad, dQuota
	}
	dEmb := make([][]float64, m.Cfg.Nodes)
	for i := 0; i < m.Cfg.Nodes; i++ {
		dEmb[i] = append([]float64(nil), dRead[i*m.Cfg.Embed:(i+1)*m.Cfg.Embed]...)
	}
	for k := m.Cfg.Steps - 1; k >= 0; k-- {
		prevDim := len(st.embs[k][0])
		dPrev := make([][]float64, m.Cfg.Nodes)
		for i := range dPrev {
			dPrev[i] = make([]float64, prevDim)
		}
		for i := 0; i < m.Cfg.Nodes; i++ {
			d := refMLPBackward(m.gamma[k], st.gammaTapes[k][i], dEmb[i])
			addX(i, d[:2])
			dMsg := d[2:]
			for pi, j := range m.Cfg.Parents[i] {
				dp := refMLPBackward(m.phi[k], st.phiTapes[k][i][pi], dMsg)
				for idx, v := range dp {
					dPrev[j][idx] += v
				}
			}
		}
		dEmb = dPrev
	}
	// embs[0] = x.
	for i := 0; i < m.Cfg.Nodes; i++ {
		addX(i, dEmb[i])
	}
	return dLoad, dQuota
}

func (m *Model) zeroGrad() {
	for _, l := range m.params() {
		refZeroGrad(l)
	}
}

func refTrain(m *Model, samples []Sample, tc TrainConfig) TrainResult {
	if tc.Loss == nil {
		tc.Loss = nn.PaperLoss()
	}
	if tc.EvalEvery <= 0 {
		tc.EvalEvery = 50
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	shuffled := append([]Sample(nil), samples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nVal := int(float64(len(shuffled)) * tc.ValFrac)
	nTest := int(float64(len(shuffled)) * tc.TestFrac)
	val := shuffled[:nVal]
	test := shuffled[nVal : nVal+nTest]
	train := shuffled[nVal+nTest:]
	if len(train) == 0 {
		panic("gnn: no training samples after splits")
	}

	opt := newRefAdam(tc.LR)
	res := TrainResult{BestVal: -1, Test: test}
	var bestSnap [][]float64

	evalSet := func(set []Sample) float64 {
		if len(set) == 0 {
			return 0
		}
		sum := 0.0
		for _, s := range set {
			l, _ := tc.Loss.Loss(m.forward(s.Load, s.Quota, false, nil).y, s.Latency)
			sum += l
		}
		return sum / float64(len(set))
	}

	for iter := 0; iter < tc.Iterations; iter++ {
		var tBatch time.Time
		if tc.Obs != nil {
			tBatch = time.Now()
		}
		m.zeroGrad()
		batchLoss := 0.0
		for b := 0; b < tc.Batch; b++ {
			s := train[rng.Intn(len(train))]
			st := m.forward(s.Load, s.Quota, true, rng)
			l, d := tc.Loss.Loss(st.y, s.Latency)
			batchLoss += l
			m.backward(st, d)
		}
		opt.Step(m.params(), float64(tc.Batch))
		if tc.Obs != nil {
			tc.Obs.Batch(time.Since(tBatch).Nanoseconds())
		}

		if iter%tc.EvalEvery == 0 || iter == tc.Iterations-1 {
			v := evalSet(val)
			res.Curve = append(res.Curve, CurvePoint{
				Iteration: iter,
				Train:     batchLoss / float64(tc.Batch),
				Val:       v,
			})
			tc.Obs.Eval(iter, batchLoss/float64(tc.Batch), v)
			if len(val) > 0 && (res.BestVal < 0 || v < res.BestVal) {
				res.BestVal = v
				bestSnap = m.snapshotWeights()
			}
		}
	}
	if bestSnap != nil {
		m.restoreWeights(bestSnap)
	}
	return res
}

func refTrainPartitioned(p *Partitioned, samples []Sample, tc TrainConfig) TrainResult {
	if tc.Loss == nil {
		tc.Loss = nn.PaperLoss()
	}
	if tc.EvalEvery <= 0 {
		tc.EvalEvery = 50
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	shuffled := append([]Sample(nil), samples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nVal := int(float64(len(shuffled)) * tc.ValFrac)
	nTest := int(float64(len(shuffled)) * tc.TestFrac)
	val := shuffled[:nVal]
	test := shuffled[nVal : nVal+nTest]
	train := shuffled[nVal+nTest:]
	if len(train) == 0 {
		panic("gnn: no training samples after splits")
	}

	params := func() []*nn.Linear {
		var out []*nn.Linear
		for _, s := range p.Subs {
			out = append(out, s.params()...)
		}
		return out
	}
	opt := newRefAdam(tc.LR)
	res := TrainResult{BestVal: -1, Test: test}

	evalSet := func(set []Sample) float64 {
		if len(set) == 0 {
			return 0
		}
		sum := 0.0
		for _, s := range set {
			pred := 0.0
			for si, g := range p.Groups {
				pred += p.Subs[si].forward(p.slice(s.Load, g), p.slice(s.Quota, g), false, nil).y
			}
			l, _ := tc.Loss.Loss(pred, s.Latency)
			sum += l
		}
		return sum / float64(len(set))
	}

	var bestSnaps [][][]float64
	for iter := 0; iter < tc.Iterations; iter++ {
		for _, s := range p.Subs {
			s.zeroGrad()
		}
		batchLoss := 0.0
		for b := 0; b < tc.Batch; b++ {
			s := train[rng.Intn(len(train))]
			// Forward every partition, keeping states for backward.
			states := make([]*fwdState, len(p.Subs))
			pred := 0.0
			for si, g := range p.Groups {
				states[si] = p.Subs[si].forward(p.slice(s.Load, g), p.slice(s.Quota, g), true, rng)
				pred += states[si].y
			}
			l, d := tc.Loss.Loss(pred, s.Latency)
			batchLoss += l
			for si := range p.Subs {
				p.Subs[si].backward(states[si], d)
			}
		}
		opt.Step(params(), float64(tc.Batch))

		if iter%tc.EvalEvery == 0 || iter == tc.Iterations-1 {
			v := evalSet(val)
			res.Curve = append(res.Curve, CurvePoint{Iteration: iter, Train: batchLoss / float64(tc.Batch), Val: v})
			if len(val) > 0 && (res.BestVal < 0 || v < res.BestVal) {
				res.BestVal = v
				bestSnaps = bestSnaps[:0]
				for _, s := range p.Subs {
					bestSnaps = append(bestSnaps, s.snapshotWeights())
				}
			}
		}
	}
	if bestSnaps != nil {
		for si, s := range p.Subs {
			s.restoreWeights(bestSnaps[si])
		}
	}
	return res
}
