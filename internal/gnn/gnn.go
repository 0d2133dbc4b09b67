// Package gnn implements the paper's Latency Prediction Model (§3.4): a
// message-passing neural network (MPNN, Eq. 3) over the microservice graph
// followed by a fully connected readout that regresses end-to-end tail
// latency from per-node (workload, CPU-quota) states.
//
// Two message-passing steps are performed, exactly as the paper specifies:
// in step one a node's embedding is computed from its one-hop anterior
// microservices' raw features; in step two from their step-one embeddings.
// γ and φ are MLPs with two hidden layers of 20 units; the readout has two
// hidden layers of 120 units with dropout 0.25 (Table 1, §4).
//
// The model exposes gradients with respect to its quota inputs
// (PredictGrad), which is what makes the configuration solver's Eq. 5
// end-to-end differentiable.
package gnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"graf/internal/nn"
)

// Config describes the network architecture and input scaling.
type Config struct {
	Nodes   int     // number of microservices
	Parents [][]int // Parents[i] = indices of node i's callers (N(i) of Eq. 3)

	Hidden        int     // hidden width of γ/φ (paper: 20)
	Embed         int     // embedding width (paper: 20)
	ReadoutHidden int     // hidden width of the readout FC (paper: 120)
	Dropout       float64 // readout dropout probability (paper: 0.25)
	Steps         int     // message-passing steps (paper: 2)
	UseMPNN       bool    // false = the "GRAF w/o MPNN" ablation of Fig 11

	// Input scaling keeps features O(1): loads are multiplied by
	// LoadScale, quotas by QuotaScale. The output is latency in seconds.
	LoadScale  float64
	QuotaScale float64
}

// DefaultConfig returns the paper's architecture for an application with
// the given node count and parent lists.
func DefaultConfig(nodes int, parents [][]int) Config {
	return Config{
		Nodes: nodes, Parents: parents,
		Hidden: 20, Embed: 20, ReadoutHidden: 120,
		Dropout: 0.25, Steps: 2, UseMPNN: true,
		LoadScale: 1.0 / 100, QuotaScale: 1.0 / 1000,
	}
}

// encoder is the one definition of a node's features: encode writes a node's
// load l (req/s) and quota q (millicores) into its feature row of width(), and
// pullback takes feature rows' gradients back to the quotas.
type encoder struct{ loadScale, quotaScale float64 }

func (c Config) encoder() encoder                  { return encoder{c.LoadScale, c.QuotaScale} }
func (encoder) width() int                         { return 2 }
func (e encoder) encode(x []float64, l, q float64) { x[0], x[1] = l*e.loadScale, q*e.quotaScale }

// pullback adds to each dq[r] the gradient at node r's quota, in seconds per
// millicore, of the feature row whose gradient starts at d[r*stride].
func (e encoder) pullback(dq, d []float64, stride int) {
	for r := range dq {
		dq[r] += float64(d[r*stride+1] * e.quotaScale)
	}
}

// Model is a trained or trainable latency predictor.
type Model struct {
	Cfg Config

	phi     []*nn.MLP // per step: message network φ^(k)
	gamma   []*nn.MLP // per step: update network γ^(k)
	readout *nn.MLP
	nets    []*nn.MLP // all of them: φ per step, γ per step, the readout

	// The parent edges in node order, each node's in Cfg.Parents order:
	// edge e runs from node src[e] to node dst[e], and node i's are
	// [off[i], off[i+1]).
	src, dst, off []int

	// free is the stack of idle Scratches Predict/PredictGrad borrow from.
	// A mutex-guarded stack, not a sync.Pool: the GC never empties it, so
	// allocation counts repeat exactly. It grows to the peak number of
	// concurrent one-shot callers; one that panics drops its Scratch.
	mu   sync.Mutex
	free []*Scratch
}

// New builds a model with freshly initialized weights drawn from rng.
func New(cfg Config, rng *rand.Rand) *Model {
	if cfg.Nodes <= 0 || len(cfg.Parents) != cfg.Nodes {
		panic("gnn: invalid node/parents configuration")
	}
	m := &Model{Cfg: cfg}
	phi, gamma, readout := netSizes(cfg)
	for k := range phi {
		m.phi = append(m.phi, nn.NewMLP(phi[k], 0, rng))
		m.gamma = append(m.gamma, nn.NewMLP(gamma[k], 0, rng))
	}
	m.readout = nn.NewMLP(readout, cfg.Dropout, rng)
	m.nets = append(append(append(m.nets, m.phi...), m.gamma...), m.readout)
	for i, ps := range cfg.Parents {
		m.off = append(m.off, len(m.src))
		for _, j := range ps {
			m.src, m.dst = append(m.src, j), append(m.dst, i)
		}
	}
	m.off = append(m.off, len(m.src))
	return m
}

// netSizes returns the layer widths of the networks New builds: φ and γ per
// message-passing step (none without MPNN), then the readout.
func netSizes(cfg Config) (phi, gamma [][]int, readout []int) {
	features := cfg.encoder().width()
	if !cfg.UseMPNN {
		return nil, nil, []int{cfg.Nodes * features, cfg.ReadoutHidden, cfg.ReadoutHidden, 1}
	}
	in := features // φ^(0) reads the features, φ^(k) step k-1's embeddings
	for k := 0; k < cfg.Steps; k++ {
		phi = append(phi, []int{in, cfg.Hidden, cfg.Hidden, cfg.Embed})
		gamma = append(gamma, []int{features + cfg.Embed, cfg.Hidden, cfg.Hidden, cfg.Embed})
		in = cfg.Embed
	}
	return phi, gamma, []int{cfg.Nodes * cfg.Embed, cfg.ReadoutHidden, cfg.ReadoutHidden, 1}
}

// Sample is one (workload, resources, latency) training triple, the format
// the sample collector produces (§3.7). Load and Quota are indexed by node.
type Sample struct {
	Load    []float64 // per-node workload, req/s
	Quota   []float64 // per-node CPU quota, millicores
	Latency float64   // end-to-end tail latency, seconds
}

// borrow pops an idle Scratch, or builds one when all are in use.
func (m *Model) borrow() *Scratch {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		return s
	}
	return m.NewScratch()
}

func (m *Model) giveBack(s *Scratch) {
	m.mu.Lock()
	m.free = append(m.free, s)
	m.mu.Unlock()
}

// Predict returns the model's end-to-end tail-latency estimate in seconds.
// It only reads the weights and is safe for concurrent use: each call runs
// the PredictWith kernel on a borrowed Scratch, so it does not allocate once
// the free list is warm. PredictWith on a caller-owned Scratch skips the lock.
func (m *Model) Predict(load, quota []float64) float64 {
	s := m.borrow()
	y := m.PredictWith(s, load, quota)
	m.giveBack(s)
	return y
}

// PredictGrad returns the prediction and its gradient with respect to each
// node's quota (seconds per millicore) — the ∂L/∂r the configuration solver
// descends. The returned slice is owned by the caller and the call's only
// allocation.
func (m *Model) PredictGrad(load, quota []float64) (latency float64, dQuota []float64) {
	dQuota = make([]float64, m.Cfg.Nodes)
	return m.PredictGradInto(load, quota, dQuota), dQuota
}

// PredictGradInto is PredictGrad writing the gradient into dQuota (one entry
// per node). Like Predict it borrows its Scratch and does not allocate.
func (m *Model) PredictGradInto(load, quota, dQuota []float64) float64 {
	s := m.borrow()
	y, dq := m.PredictGradWith(s, load, quota)
	copy(dQuota, dq)
	m.giveBack(s)
	return y
}

func (m *Model) params() []*nn.Linear {
	var out []*nn.Linear
	for _, net := range m.nets {
		out = append(out, net.Layers...)
	}
	return out
}

// snapshotWeights deep-copies all weights.
func (m *Model) snapshotWeights() [][]float64 { return m.snapshotInto(nil) }

// snapshotInto copies all weights into dst, W then B of every layer, reusing
// its buffers (best-validation tracking keeps one), and returns it.
func (m *Model) snapshotInto(dst [][]float64) [][]float64 {
	ps := m.params()
	if dst == nil {
		dst = make([][]float64, 2*len(ps))
	}
	for i, l := range ps {
		dst[2*i] = append(dst[2*i][:0], l.W...)
		dst[2*i+1] = append(dst[2*i+1][:0], l.B...)
	}
	return dst
}

func (m *Model) restoreWeights(snap [][]float64) {
	for i, l := range m.params() {
		l.SetParams(snap[2*i], snap[2*i+1])
	}
}

// Clone returns a deep copy: same architecture, independent weights. The
// lifecycle manager retrains clones so a candidate's gradient steps never
// touch the incumbent serving the solver.
func (m *Model) Clone() *Model {
	out := New(m.Cfg, rand.New(rand.NewSource(0)))
	out.restoreWeights(m.snapshotWeights())
	return out
}

// --- Serialization -----------------------------------------------------

type persisted struct {
	Cfg     Config
	Weights [][]float64
}

// gob numbers each type the first time anything in the process encodes it
// and writes those numbers into the stream, so a model's bytes would depend
// on what the process gob-encoded before (a checkpoint, say). Encoding the
// model's types first, at init, gives the same model the same bytes in every
// process.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(persisted{}); err != nil {
		panic(err)
	}
}

// MarshalBinary encodes the model (architecture + weights) with gob.
func (m *Model) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(persisted{Cfg: m.Cfg, Weights: m.snapshotWeights()})
	return buf.Bytes(), err
}

// UnmarshalBinary decodes a model previously encoded with MarshalBinary.
// A payload whose architecture is malformed or disagrees with its weights
// is an error, never a panic or an allocation larger than the payload.
func (m *Model) UnmarshalBinary(data []byte) error {
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return err
	}
	if err := p.check(); err != nil {
		return err
	}
	fresh := New(p.Cfg, rand.New(rand.NewSource(0)))
	fresh.restoreWeights(p.Weights)
	// Not *m = *fresh, which would copy the free-list mutex. Decoding needs
	// exclusive access to m anyway; Scratches of the old shape are dropped.
	m.Cfg, m.phi, m.gamma, m.readout, m.nets = fresh.Cfg, fresh.phi, fresh.gamma, fresh.readout, fresh.nets
	m.src, m.dst, m.off = fresh.src, fresh.dst, fresh.off
	m.free = nil
	return nil
}

// check verifies that New(p.Cfg) builds exactly the layers p.Weights fills:
// W then B for every layer, in m.nets order.
func (p *persisted) check() error {
	const maxDim = 1 << 16
	c := p.Cfg
	if c.Nodes <= 0 || c.Nodes > maxDim || len(c.Parents) != c.Nodes {
		return fmt.Errorf("gnn: %d nodes with %d parent lists", c.Nodes, len(c.Parents))
	}
	for i, ps := range c.Parents {
		for _, j := range ps {
			if j < 0 || j >= c.Nodes {
				return fmt.Errorf("gnn: node %d has parent %d of %d nodes", i, j, c.Nodes)
			}
		}
	}
	for _, d := range []int{c.Hidden, c.Embed, c.ReadoutHidden} {
		if d <= 0 || d > maxDim {
			return fmt.Errorf("gnn: layer width %d outside [1, %d]", d, maxDim)
		}
	}
	if c.UseMPNN && (c.Steps < 0 || c.Steps > len(p.Weights)) {
		return fmt.Errorf("gnn: %d message-passing steps for %d weight tensors", c.Steps, len(p.Weights))
	}
	phi, gamma, readout := netSizes(c)
	i := 0
	for _, sizes := range append(append(phi, gamma...), readout) {
		for l := 0; l+1 < len(sizes); l++ {
			if i+1 >= len(p.Weights) || len(p.Weights[i]) != sizes[l]*sizes[l+1] || len(p.Weights[i+1]) != sizes[l+1] {
				return fmt.Errorf("gnn: weight tensors %d–%d do not fit a %d×%d layer", i, i+1, sizes[l], sizes[l+1])
			}
			i += 2
		}
	}
	if i != len(p.Weights) {
		return fmt.Errorf("gnn: %d weight tensors for %d layers", len(p.Weights), i/2)
	}
	return nil
}
