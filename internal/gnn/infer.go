// The model's one forward and one backward pass. Inference and training run
// the same kernels on the same buffers, layer-major: a Scratch holds up to N
// samples, and each network's layer takes every row it has in the pass —
// φ^(k) one per parent edge of every sample, γ^(k) one per node, the readout
// one per sample — in one call (nn.Rows). Between the layers, plain loops
// gather φ's inputs, sum the messages into γ's inputs and, going back,
// scatter the gradients, in the order the per-node recursion of Eq. 3 takes
// them. Only the encoder writes a node's features, and only it takes their
// gradients back to the quotas (PredictGrad's ∂L/∂quota). The path is:
//
//   - read-only: it touches only layer weights (W, B), never the GW/GB
//     accumulators, so any number of goroutines may run it against one
//     model concurrently (as long as nothing mutates the weights), and
//     passes over disjoint samples of one Scratch may run at once;
//   - rng-free: dropout masks are drawn into a training Scratch beforehand
//     (drawMasks), an inference Scratch has none;
//   - allocation-free after setup: every intermediate lives in a Scratch
//     reused across calls: the caller's own (PredictWith/PredictGradWith),
//     one borrowed from the model's free list (Predict/PredictGrad), or the
//     trainer's.
//
// Every buffer a pass reads stays untouched until the Scratch's next pass, so
// a finished forward+backward is also the tape weight gradients are
// accumulated from (trainer.weightGradSpan). Same-seed runs replay
// byte-identically.
package gnn

import (
	"math/rand"

	"graf/internal/nn"
)

// Scratch holds every buffer a pass (forward or forward+backward) over up to
// n samples needs. A Scratch is sized for one model architecture and may be
// reused across any number of calls — and across model swaps, as long as the
// new model has the same shape. A Scratch is NOT safe for concurrent use,
// except for passes over disjoint samples; give each goroutine its own.
type Scratch struct {
	nodes, embed, steps int
	useMPNN             bool
	edges               int

	x    []float64  // n·nodes × the encoder's width: the node features
	nets []*nn.Rows // per network of Model.nets: φ's (n·edges rows), γ's (n·nodes rows), the readout's (n rows)
	phi  []*nn.Rows // views of nets: per step
	gam  []*nn.Rows
	read *nn.Rows

	dPrev  [][]float64 // per step k: n·nodes × width of step k's input, its gradient
	dQuota []float64   // n × nodes
}

// NewScratch allocates a reusable one-sample inference scratch sized for m's
// architecture.
func (m *Model) NewScratch() *Scratch { return m.newScratch(1, false) }

// newScratch sizes a Scratch of n samples for m; a training one carries
// dropout masks.
func (m *Model) newScratch(n int, train bool) *Scratch {
	cfg := m.Cfg
	N := cfg.Nodes
	s := &Scratch{
		nodes: N, embed: cfg.Embed, steps: cfg.Steps, useMPNN: cfg.UseMPNN, edges: len(m.src),
		x:      make([]float64, n*N*cfg.encoder().width()),
		dQuota: make([]float64, n*N),
	}
	if !cfg.UseMPNN {
		s.read = m.readout.NewRows(n, nil, nil, train)
		s.nets = []*nn.Rows{s.read}
		return s
	}
	for k := range m.phi {
		s.dPrev = append(s.dPrev, make([]float64, n*N*m.phi[k].Layers[0].In))
	}
	for k := range m.phi {
		s.phi = append(s.phi, m.phi[k].NewRows(n*len(m.src), nil, nil, train))
		var dOut []float64 // γ^(k)'s output gradient is step k+1's input gradient
		if k+1 < cfg.Steps {
			dOut = s.dPrev[k+1]
		}
		s.gam = append(s.gam, m.gamma[k].NewRows(n*N, nil, dOut, train))
	}
	// The readout reads the last level in place, one sample's nodes to a
	// row, and writes its input gradient where the last γ reads it.
	last := s.gam[cfg.Steps-1]
	s.read = m.readout.NewRows(n, last.Out(), nil, train)
	last.DOut = s.read.DIn()
	s.nets = append(append(append(s.nets, s.phi...), s.gam...), s.read)
	return s
}

// fits reports whether the scratch was sized for a model of m's shape.
func (s *Scratch) fits(m *Model) bool {
	cfg := m.Cfg
	return s.nodes == cfg.Nodes && s.useMPNN == cfg.UseMPNN &&
		(!cfg.UseMPNN || s.embed == cfg.Embed && s.steps == cfg.Steps && s.edges == len(m.src))
}

// perSample returns how many rows of network ni's tape one sample takes.
func (m *Model) perSample(ni int) int {
	switch {
	case ni == len(m.nets)-1:
		return 1
	case ni < len(m.phi):
		return len(m.src)
	}
	return m.Cfg.Nodes
}

// setInput writes sample c's features: node i's load and quota are
// load[group[i]] and quota[group[i]] (group nil: load[i] and quota[i]).
func (m *Model) setInput(s *Scratch, c int, load, quota []float64, group []int) {
	enc := m.Cfg.encoder()
	f := enc.width()
	for i := 0; i < s.nodes; i++ {
		g := i
		if group != nil {
			g = group[i]
		}
		enc.encode(s.x[(c*s.nodes+i)*f:], load[g], quota[g])
	}
}

// drawMasks samples the dropout masks of sample c of a training Scratch for
// its next forward pass, in the order the per-node recursion of Eq. 3 invokes
// the networks: for each step, each node's parent edges' φ, then its γ; the
// readout last.
func (m *Model) drawMasks(s *Scratch, c int, rng *rand.Rand) {
	for k := range s.phi {
		for i := 0; i < s.nodes; i++ {
			for e := m.off[i]; e < m.off[i+1]; e++ {
				m.phi[k].DrawMasks(s.phi[k], c*s.edges+e, rng)
			}
			m.gamma[k].DrawMasks(s.gam[k], c*s.nodes+i, rng)
		}
	}
	m.readout.DrawMasks(s.read, c, rng)
}

// forwardRows runs samples [lo, hi) of s through the MPNN and the readout; their
// predictions are s.read.Out()[lo:hi].
func (m *Model) forwardRows(s *Scratch, lo, hi int) {
	N, E, f := s.nodes, s.edges, m.Cfg.encoder().width()
	cur, w := s.x, f
	if !s.useMPNN { // one row a sample; not s.x, where the next chunk is drawn while this one's weight gradients run
		copy(s.read.In[lo*N*f:hi*N*f], s.x[lo*N*f:hi*N*f])
	}
	for k := range s.phi {
		in := s.phi[k].In
		for c := lo; c < hi; c++ {
			for e, j := range m.src {
				r, from := c*E+e, c*N+j
				copy(in[r*w:(r+1)*w], cur[from*w:(from+1)*w])
			}
		}
		m.phi[k].Forward(s.phi[k], lo*E, hi*E)
		msgs, gin, gw := s.phi[k].Out(), s.gam[k].In, f+s.embed
		for c := lo; c < hi; c++ {
			for i := 0; i < N; i++ {
				r := c*N + i
				row := gin[r*gw : (r+1)*gw]
				copy(row, s.x[r*f:(r+1)*f])
				msg := row[f:]
				clear(msg)
				for e := m.off[i]; e < m.off[i+1]; e++ {
					for d, v := range msgs[(c*E+e)*s.embed : (c*E+e+1)*s.embed] {
						msg[d] += v
					}
				}
			}
		}
		m.gamma[k].Forward(s.gam[k], lo*N, hi*N)
		cur, w = s.gam[k].Out(), s.embed
	}
	m.readout.Forward(s.read, lo, hi)
}

// backwardRows propagates the output gradients s.read.DOut[lo:hi] back through
// the pass forwardRows recorded for samples [lo, hi), leaving every network's
// output gradients for the weight gradients; with features set it also fills
// s.dQuota, through the encoder, in seconds per millicore.
func (m *Model) backwardRows(s *Scratch, lo, hi int, features bool) {
	enc := m.Cfg.encoder()
	N, E, f := s.nodes, s.edges, enc.width()
	m.readout.Backward(s.read, lo, hi, features || s.useMPNN)
	if features {
		clear(s.dQuota[lo*N : hi*N])
	}
	src := s.read.DIn() // the gradient of the current step's input
	for k := len(s.phi) - 1; k >= 0; k-- {
		m.gamma[k].Backward(s.gam[k], lo*N, hi*N, true)
		gd, gw := s.gam[k].DIn(), f+s.embed
		if features {
			enc.pullback(s.dQuota[lo*N:hi*N], gd[lo*N*gw:], gw)
		}
		dOut := s.phi[k].DOut
		for c := lo; c < hi; c++ {
			for e, i := range m.dst {
				r, from := c*E+e, (c*N+i)*gw+f
				copy(dOut[r*s.embed:(r+1)*s.embed], gd[from:from+s.embed])
			}
		}
		// Step 0's input is the features: training needs no gradient of them.
		m.phi[k].Backward(s.phi[k], lo*E, hi*E, k > 0 || features)
		if k == 0 && !features {
			return
		}
		pd, dst, w := s.phi[k].DIn(), s.dPrev[k], m.phi[k].Layers[0].In
		clear(dst[lo*N*w : hi*N*w])
		for c := lo; c < hi; c++ {
			for e, j := range m.src {
				to, from := (c*N+j)*w, (c*E+e)*w
				for d, v := range pd[from : from+w] {
					dst[to+d] += v
				}
			}
		}
		src = dst
	}
	if features { // src now holds the node features' gradients
		enc.pullback(s.dQuota[lo*N:hi*N], src[lo*N*f:], f)
	}
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
	m.setInput(s, 0, load, quota, nil)
	m.forwardRows(s, 0, 1)
	return s.read.Out()[0]
}

// PredictGradWith returns the prediction and the gradient of latency with
// respect to each node's quota. The returned slice is owned by s and valid
// only until the next call using s — copy it to retain it.
func (m *Model) PredictGradWith(s *Scratch, load, quota []float64) (float64, []float64) {
	y := m.PredictWith(s, load, quota)
	s.read.DOut[0] = 1
	m.backwardRows(s, 0, 1, true)
	return y, s.dQuota[:s.nodes]
}
