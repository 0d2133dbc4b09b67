// Inference-only forward and input-gradient passes. The training path
// (forward/backward in gnn.go) allocates tapes per call and accumulates
// parameter gradients into the shared layers — neither is acceptable for a
// fleet of concurrent solvers sharing one model. The path here is:
//
//   - read-only: it touches only layer weights (W, B), never the GW/GB
//     accumulators, so any number of goroutines may run it against one
//     model concurrently (as long as nothing mutates the weights);
//   - rng-free: dropout is a training-time device, inference never needs a
//     *rand.Rand;
//   - allocation-free after setup: every intermediate lives in a Scratch
//     reused across calls: the caller's own (PredictWith/PredictGradWith)
//     or one borrowed from the model's free list (Predict/PredictGrad).
//
// Floating-point operation order matches the training-path forward exactly,
// so Predict via a Scratch is bit-identical to the historical
// forward(train=false) result — same-seed runs replay byte-identically.
package gnn

import "graf/internal/nn"

// mlpScratch holds the per-invocation activations of one MLP evaluation:
// pre-activations (needed by the input-gradient backward to undo ReLU) and
// post-ReLU activations, plus per-layer input-gradient buffers.
type mlpScratch struct {
	pre [][]float64 // per layer: pre-activation output (last = final output)
	act [][]float64 // per hidden layer: post-ReLU output
	din [][]float64 // per layer: input-gradient buffer
}

func newMLPScratch(mlp *nn.MLP) *mlpScratch {
	s := &mlpScratch{}
	last := len(mlp.Layers) - 1
	for li, l := range mlp.Layers {
		s.pre = append(s.pre, make([]float64, l.Out))
		s.din = append(s.din, make([]float64, l.In))
		if li != last {
			s.act = append(s.act, make([]float64, l.Out))
		} else {
			s.act = append(s.act, nil)
		}
	}
	return s
}

// mlpForwardInfer evaluates the MLP without dropout, writing every
// intermediate into s. The returned slice is s.pre[last] — valid until the
// next invocation on this scratch.
func mlpForwardInfer(mlp *nn.MLP, s *mlpScratch, x []float64) []float64 {
	cur := x
	last := len(mlp.Layers) - 1
	for li, l := range mlp.Layers {
		l.ForwardInto(cur, s.pre[li])
		if li == last {
			break
		}
		pre, act := s.pre[li], s.act[li]
		for i, v := range pre {
			if v > 0 {
				act[i] = v
			} else {
				act[i] = 0
			}
		}
		cur = act
	}
	return s.pre[last]
}

// mlpInputGrad backpropagates dy through the scratch's recorded invocation,
// returning dL/dx (s.din[0], valid until the next backward on this scratch).
// It never touches parameter gradient accumulators. dy itself is only read.
func mlpInputGrad(mlp *nn.MLP, s *mlpScratch, dy []float64) []float64 {
	cur := dy
	last := len(mlp.Layers) - 1
	for li := last; li >= 0; li-- {
		if li != last {
			// Undo ReLU. cur aliases s.din[li+1] here, so the in-place
			// masking never writes into the caller's dy.
			pre := s.pre[li]
			for i := range cur {
				if pre[i] <= 0 {
					cur[i] = 0
				}
			}
		}
		mlp.Layers[li].InputGrad(cur, s.din[li])
		cur = s.din[li]
	}
	return cur
}

// Scratch holds every buffer one inference (forward or forward+input-grad)
// needs. A Scratch is sized for one model architecture and may be reused
// across any number of calls — and across model swaps, as long as the new
// model has the same shape (the fleet's lifecycle promotion path relies on
// this). A Scratch is NOT safe for concurrent use; give each goroutine its
// own.
type Scratch struct {
	nodes, embed, steps int
	useMPNN             bool
	edges               int

	x       [][]float64     // per-node (load, quota) features
	edgeOff []int           // node i's parent edges start at edgeOff[i]
	phiSt   [][]*mlpScratch // [step][edge]
	gamSt   [][]*mlpScratch // [step][node]
	lvl     [][][]float64   // lvl[k][i] = gamma output views (stable buffers)
	gin     []float64       // gamma input: (x_i, msg)
	msg     []float64       // message accumulator
	readSt  *mlpScratch
	readIn  []float64

	dy1            []float64 // upstream gradient for the readout
	dReadViews     [][]float64
	dPrevA, dPrevB [][]float64 // ping-pong per-node gradient buffers
	srcViews       [][]float64
	dstViews       [][]float64
	dLoad, dQuota  []float64
}

// NewScratch allocates a reusable inference scratch sized for m's
// architecture.
func (m *Model) NewScratch() *Scratch {
	cfg := m.Cfg
	s := &Scratch{
		nodes: cfg.Nodes, embed: cfg.Embed, steps: cfg.Steps,
		useMPNN: cfg.UseMPNN,
		x:       make([][]float64, cfg.Nodes),
		readSt:  newMLPScratch(m.readout),
		dy1:     make([]float64, 1),
		dLoad:   make([]float64, cfg.Nodes),
		dQuota:  make([]float64, cfg.Nodes),
	}
	for i := range s.x {
		s.x[i] = make([]float64, 2)
	}
	if !cfg.UseMPNN {
		s.readIn = make([]float64, cfg.Nodes*2)
		s.dReadViews = make([][]float64, cfg.Nodes)
		return s
	}
	s.edgeOff = make([]int, cfg.Nodes)
	for i, ps := range cfg.Parents {
		s.edgeOff[i] = s.edges
		s.edges += len(ps)
	}
	for k := 0; k < cfg.Steps; k++ {
		phiRow := make([]*mlpScratch, s.edges)
		for e := range phiRow {
			phiRow[e] = newMLPScratch(m.phi[k])
		}
		s.phiSt = append(s.phiSt, phiRow)
		gamRow := make([]*mlpScratch, cfg.Nodes)
		lvlRow := make([][]float64, cfg.Nodes)
		for i := range gamRow {
			gamRow[i] = newMLPScratch(m.gamma[k])
			lvlRow[i] = gamRow[i].pre[len(m.gamma[k].Layers)-1]
		}
		s.gamSt = append(s.gamSt, gamRow)
		s.lvl = append(s.lvl, lvlRow)
	}
	s.gin = make([]float64, 2+cfg.Embed)
	s.msg = make([]float64, cfg.Embed)
	s.readIn = make([]float64, cfg.Nodes*cfg.Embed)
	s.dReadViews = make([][]float64, cfg.Nodes)
	s.dPrevA = make([][]float64, cfg.Nodes)
	s.dPrevB = make([][]float64, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		s.dPrevA[i] = make([]float64, cfg.Embed)
		s.dPrevB[i] = make([]float64, cfg.Embed)
	}
	s.srcViews = make([][]float64, cfg.Nodes)
	s.dstViews = make([][]float64, cfg.Nodes)
	return s
}

// fits reports whether the scratch was sized for a model of m's shape.
func (s *Scratch) fits(m *Model) bool {
	cfg := m.Cfg
	if s.nodes != cfg.Nodes || s.useMPNN != cfg.UseMPNN {
		return false
	}
	if !cfg.UseMPNN {
		return true
	}
	edges := 0
	for _, ps := range cfg.Parents {
		edges += len(ps)
	}
	return s.embed == cfg.Embed && s.steps == cfg.Steps && s.edges == edges
}

// inferForward runs the MPNN + readout forward pass into s and returns the
// latency estimate. Bit-identical to forward(load, quota, false, nil).y.
func (m *Model) inferForward(s *Scratch, load, quota []float64) float64 {
	if !s.fits(m) {
		panic("gnn: Scratch does not match model architecture")
	}
	if len(load) != m.Cfg.Nodes || len(quota) != m.Cfg.Nodes {
		panic("gnn: PredictWith input size mismatch")
	}
	for i := range s.x {
		s.x[i][0] = load[i] * m.Cfg.LoadScale
		s.x[i][1] = quota[i] * m.Cfg.QuotaScale
	}
	if !m.Cfg.UseMPNN {
		for i, xi := range s.x {
			s.readIn[i*2] = xi[0]
			s.readIn[i*2+1] = xi[1]
		}
		return mlpForwardInfer(m.readout, s.readSt, s.readIn)[0]
	}
	cur := s.x
	for k := 0; k < m.Cfg.Steps; k++ {
		for i := 0; i < m.Cfg.Nodes; i++ {
			for d := range s.msg {
				s.msg[d] = 0
			}
			for pi, j := range m.Cfg.Parents[i] {
				out := mlpForwardInfer(m.phi[k], s.phiSt[k][s.edgeOff[i]+pi], cur[j])
				for d, v := range out {
					s.msg[d] += v
				}
			}
			copy(s.gin[:2], s.x[i])
			copy(s.gin[2:], s.msg)
			mlpForwardInfer(m.gamma[k], s.gamSt[k][i], s.gin)
		}
		cur = s.lvl[k]
	}
	for i, e := range cur {
		copy(s.readIn[i*m.Cfg.Embed:(i+1)*m.Cfg.Embed], e)
	}
	return mlpForwardInfer(m.readout, s.readSt, s.readIn)[0]
}

// inferBackward computes input gradients for the forward pass recorded in s
// (upstream gradient dy), filling s.dLoad and s.dQuota in unscaled units.
// Values are bit-identical to the training path's backward.
func (m *Model) inferBackward(s *Scratch, dy float64) {
	for i := range s.dLoad {
		s.dLoad[i] = 0
		s.dQuota[i] = 0
	}
	s.dy1[0] = dy
	dRead := mlpInputGrad(m.readout, s.readSt, s.dy1)
	addX := func(i int, d0, d1 float64) {
		s.dLoad[i] += d0 * m.Cfg.LoadScale
		s.dQuota[i] += d1 * m.Cfg.QuotaScale
	}
	if !m.Cfg.UseMPNN {
		for i := 0; i < m.Cfg.Nodes; i++ {
			addX(i, dRead[i*2], dRead[i*2+1])
		}
		return
	}
	src := s.srcViews
	for i := 0; i < m.Cfg.Nodes; i++ {
		src[i] = dRead[i*m.Cfg.Embed : (i+1)*m.Cfg.Embed]
	}
	for k := m.Cfg.Steps - 1; k >= 0; k-- {
		prevDim := m.Cfg.Embed
		if k == 0 {
			prevDim = 2
		}
		buf := s.dPrevA
		if (m.Cfg.Steps-1-k)%2 == 1 {
			buf = s.dPrevB
		}
		dst := s.dstViews
		for i := 0; i < m.Cfg.Nodes; i++ {
			dst[i] = buf[i][:prevDim]
			for d := range dst[i] {
				dst[i][d] = 0
			}
		}
		for i := 0; i < m.Cfg.Nodes; i++ {
			d := mlpInputGrad(m.gamma[k], s.gamSt[k][i], src[i])
			addX(i, d[0], d[1])
			dMsg := d[2:]
			for pi, j := range m.Cfg.Parents[i] {
				dp := mlpInputGrad(m.phi[k], s.phiSt[k][s.edgeOff[i]+pi], dMsg)
				for idx, v := range dp {
					dst[j][idx] += v
				}
			}
		}
		src, s.dstViews = dst, src
	}
	// src now holds gradients w.r.t. the raw (load, quota) features.
	for i := 0; i < m.Cfg.Nodes; i++ {
		addX(i, src[i][0], src[i][1])
	}
	s.srcViews = src
}

// PredictWith returns the latency estimate using s for every intermediate
// buffer: zero allocations, no rng, and strictly read-only on the model.
func (m *Model) PredictWith(s *Scratch, load, quota []float64) float64 {
	return m.inferForward(s, load, quota)
}

// PredictGradWith returns the prediction and the gradient of latency with
// respect to each node's quota. The returned slice is owned by s and valid
// only until the next call using s — copy it to retain it.
func (m *Model) PredictGradWith(s *Scratch, load, quota []float64) (float64, []float64) {
	y := m.inferForward(s, load, quota)
	m.inferBackward(s, 1)
	return y, s.dQuota
}
