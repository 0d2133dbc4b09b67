// The model's one forward and one backward pass. Inference and training run
// the same kernels on the same buffers; the path is:
//
//   - read-only: it touches only layer weights (W, B), never the GW/GB
//     accumulators, so any number of goroutines may run it against one
//     model concurrently (as long as nothing mutates the weights);
//   - rng-free: dropout masks are drawn into a training Scratch beforehand
//     (drawMasks), an inference Scratch has none;
//   - allocation-free after setup: every intermediate lives in a Scratch
//     reused across calls: the caller's own (PredictWith/PredictGradWith),
//     one borrowed from the model's free list (Predict/PredictGrad), or one
//     of the trainer's tape.
//
// Every buffer a pass reads stays untouched until the Scratch's next pass, so
// a finished PredictWith+inputGrad is also the tape weight gradients are
// accumulated from (trainer.weightGradSpan): each nn.Invocation still sees its input and
// its output gradient. Same-seed runs replay byte-identically.
package gnn

import (
	"math/rand"

	"graf/internal/nn"
)

// Scratch holds every buffer one pass (forward or forward+input-grad)
// needs. A Scratch is sized for one model architecture and may be reused
// across any number of calls — and across model swaps, as long as the new
// model has the same shape. A Scratch is NOT safe for concurrent use; give
// each goroutine its own.
type Scratch struct {
	nodes, embed, steps int
	useMPNN             bool
	edges               int

	x       [][]float64        // per-node (load, quota) features
	edgeOff []int              // node i's parent edges start at edgeOff[i]
	inv     [][]*nn.Invocation // per network of Model.nets: φ's in edge order, γ's in node order, as backward visits them
	phi     [][]*nn.Invocation // views of inv: [step][edge]
	gam     [][]*nn.Invocation // [step][node]
	read    *nn.Invocation     // the readout's one
	gin     [][][]float64      // gin[k][i] = γ's input at node i: (x_i, Σ messages)
	lvl     [][][]float64      // lvl[k][i] = γ's output at node i
	readIn  []float64

	dy1           []float64     // upstream gradient for the readout
	dRead         [][]float64   // per-node views of the readout's input gradient
	dPrev         [][][]float64 // dPrev[k][i] = gradient of step k's input embedding
	dLoad, dQuota []float64
}

// NewScratch allocates a reusable inference scratch sized for m's
// architecture.
func (m *Model) NewScratch() *Scratch { return m.newScratch(false) }

// newScratch sizes a Scratch for m; a training one carries dropout masks.
func (m *Model) newScratch(train bool) *Scratch {
	cfg := m.Cfg
	s := &Scratch{
		nodes: cfg.Nodes, embed: cfg.Embed, steps: cfg.Steps,
		useMPNN: cfg.UseMPNN,
		x:       make([][]float64, cfg.Nodes),
		inv:     make([][]*nn.Invocation, len(m.nets)),
		dy1:     make([]float64, 1),
		dRead:   make([][]float64, cfg.Nodes),
		dLoad:   make([]float64, cfg.Nodes),
		dQuota:  make([]float64, cfg.Nodes),
	}
	for i := range s.x {
		s.x[i] = make([]float64, 2)
	}
	for _, ps := range cfg.Parents {
		s.edgeOff = append(s.edgeOff, s.edges)
		s.edges += len(ps)
	}
	for ni, net := range m.nets {
		n := 1 // the readout
		if ni < len(m.phi) {
			n = s.edges
		} else if ni < len(m.nets)-1 {
			n = cfg.Nodes
		}
		for ; n > 0; n-- {
			s.inv[ni] = append(s.inv[ni], net.NewInvocation(train))
		}
	}
	s.read = s.inv[len(s.inv)-1][0]
	s.readIn = make([]float64, m.readout.Layers[0].In)
	if !cfg.UseMPNN {
		return s
	}
	s.phi, s.gam = s.inv[:cfg.Steps], s.inv[cfg.Steps:2*cfg.Steps]
	for k := 0; k < cfg.Steps; k++ {
		gin := make([][]float64, cfg.Nodes)
		dPrev := make([][]float64, cfg.Nodes)
		for i := range gin {
			gin[i] = make([]float64, 2+cfg.Embed)
			dPrev[i] = make([]float64, m.phi[k].Layers[0].In)
		}
		s.gin = append(s.gin, gin)
		s.dPrev = append(s.dPrev, dPrev)
		s.lvl = append(s.lvl, make([][]float64, cfg.Nodes))
	}
	return s
}

// fits reports whether the scratch was sized for a model of m's shape.
func (s *Scratch) fits(m *Model) bool {
	cfg := m.Cfg
	return s.nodes == cfg.Nodes && s.useMPNN == cfg.UseMPNN &&
		(!cfg.UseMPNN || s.embed == cfg.Embed && s.steps == cfg.Steps && s.edges == m.edges)
}

// drawMasks samples the dropout masks of a training Scratch for its next
// forward pass, in the order that pass invokes the networks.
func (m *Model) drawMasks(s *Scratch, rng *rand.Rand) {
	for k := range s.phi {
		for i := range s.gam[k] {
			for pi := range m.Cfg.Parents[i] {
				m.phi[k].DrawMasks(s.phi[k][s.edgeOff[i]+pi], rng)
			}
			m.gamma[k].DrawMasks(s.gam[k][i], rng)
		}
	}
	m.readout.DrawMasks(s.read, rng)
}

// PredictWith runs the MPNN + readout forward and returns the latency
// estimate, using s for every intermediate buffer: zero allocations, no rng,
// and strictly read-only on the model.
func (m *Model) PredictWith(s *Scratch, load, quota []float64) float64 {
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
	cur := s.x
	for k := range s.phi {
		for i := 0; i < m.Cfg.Nodes; i++ {
			in := s.gin[k][i]
			copy(in, s.x[i])
			msg := in[2:]
			for d := range msg {
				msg[d] = 0
			}
			for pi, j := range m.Cfg.Parents[i] {
				out := m.phi[k].Eval(s.phi[k][s.edgeOff[i]+pi], cur[j])
				for d, v := range out {
					msg[d] += v
				}
			}
			s.lvl[k][i] = m.gamma[k].Eval(s.gam[k][i], in)
		}
		cur = s.lvl[k]
	}
	w := len(cur[0])
	for i, e := range cur {
		copy(s.readIn[i*w:(i+1)*w], e)
	}
	return m.readout.Eval(s.read, s.readIn)[0]
}

// inputGrad computes input gradients for the forward pass recorded in s
// (upstream gradient dy), filling s.dLoad and s.dQuota in unscaled units
// (req/s, millicores).
func (m *Model) inputGrad(s *Scratch, dy float64) {
	for i := range s.dLoad {
		s.dLoad[i] = 0
		s.dQuota[i] = 0
	}
	s.dy1[0] = dy
	dRead := m.readout.InputGrad(s.read, s.dy1)
	addX := func(i int, d []float64) {
		s.dLoad[i] += d[0] * m.Cfg.LoadScale
		s.dQuota[i] += d[1] * m.Cfg.QuotaScale
	}
	w := len(dRead) / m.Cfg.Nodes
	src := s.dRead
	for i := range src {
		src[i] = dRead[i*w : (i+1)*w]
	}
	for k := len(s.phi) - 1; k >= 0; k-- {
		dst := s.dPrev[k]
		for _, d := range dst {
			for idx := range d {
				d[idx] = 0
			}
		}
		for i := 0; i < m.Cfg.Nodes; i++ {
			d := m.gamma[k].InputGrad(s.gam[k][i], src[i])
			addX(i, d)
			dMsg := d[2:]
			for pi, j := range m.Cfg.Parents[i] {
				dp := m.phi[k].InputGrad(s.phi[k][s.edgeOff[i]+pi], dMsg)
				for idx, v := range dp {
					dst[j][idx] += v
				}
			}
		}
		src = dst
	}
	// src now holds gradients w.r.t. the raw (load, quota) features.
	for i := 0; i < m.Cfg.Nodes; i++ {
		addX(i, src[i])
	}
}

// PredictGradWith returns the prediction and the gradient of latency with
// respect to each node's quota. The returned slice is owned by s and valid
// only until the next call using s — copy it to retain it.
func (m *Model) PredictGradWith(s *Scratch, load, quota []float64) (float64, []float64) {
	y := m.PredictWith(s, load, quota)
	m.inputGrad(s, 1)
	return y, s.dQuota
}
