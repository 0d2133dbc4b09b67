package gnn

import (
	"fmt"
	"math/rand"
)

// Partitioned implements the paper's §6 scalability direction: "graph
// partitioning algorithms might reduce the burden on the latency prediction
// model's scalability by partitioning the microservices and training
// separately". The application graph is split into groups; each group gets
// its own (much smaller) MPNN+readout whose scalar outputs are summed into
// the end-to-end estimate. The readout cost then grows with the largest
// partition rather than the whole application, at the price of ignoring
// cross-partition message passing.
//
// Training is joint: the summed prediction is compared against the
// end-to-end label and the gradient flows into every sub-model, so no
// per-partition labels are needed.
type Partitioned struct {
	Groups [][]int // node indices per partition (a disjoint cover)
	Subs   []*Model

	nodes int
}

// PartitionByDepth splits nodes into k groups by breadth-first depth from
// the roots (nodes with no parents): services at similar chain depth land
// in the same partition, preserving most parent→child edges inside groups.
func PartitionByDepth(parents [][]int, k int) [][]int {
	n := len(parents)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	depth := make([]int, n)
	// Longest-path depth via iterative relaxation (graphs are small DAGs).
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for _, p := range parents[i] {
				if depth[p]+1 > depth[i] {
					depth[i] = depth[p] + 1
					changed = true
				}
			}
		}
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	groups := make([][]int, k)
	for i := 0; i < n; i++ {
		g := 0
		if maxDepth > 0 {
			g = depth[i] * k / (maxDepth + 1)
		}
		groups[g] = append(groups[g], i)
	}
	// Drop empty groups.
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// NewPartitioned builds one sub-model per group over the induced subgraph
// (cross-partition edges are dropped). base supplies the architecture
// hyperparameters; node counts and parents are derived per group.
func NewPartitioned(base Config, parents [][]int, groups [][]int, rng *rand.Rand) *Partitioned {
	p := &Partitioned{Groups: groups, nodes: len(parents)}
	seen := make([]bool, len(parents))
	for _, g := range groups {
		for _, i := range g {
			if i < 0 || i >= len(parents) || seen[i] {
				panic(fmt.Sprintf("gnn: invalid partition node %d", i))
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("gnn: node %d not covered by any partition", i))
		}
	}
	for _, g := range groups {
		local := map[int]int{}
		for li, gi := range g {
			local[gi] = li
		}
		subParents := make([][]int, len(g))
		for li, gi := range g {
			for _, pp := range parents[gi] {
				if lp, ok := local[pp]; ok {
					subParents[li] = append(subParents[li], lp)
				}
			}
		}
		cfg := base
		cfg.Nodes = len(g)
		cfg.Parents = subParents
		p.Subs = append(p.Subs, New(cfg, rng))
	}
	return p
}

func (p *Partitioned) slice(v []float64, g []int) []float64 {
	out := make([]float64, len(g))
	for li, gi := range g {
		out[li] = v[gi]
	}
	return out
}

// Predict returns the summed sub-model estimate in seconds.
func (p *Partitioned) Predict(load, quota []float64) float64 {
	sum := 0.0
	for si, g := range p.Groups {
		sum += p.Subs[si].Predict(p.slice(load, g), p.slice(quota, g))
	}
	return sum
}

// PredictGrad returns the prediction and ∂latency/∂quota per global node.
func (p *Partitioned) PredictGrad(load, quota []float64) (float64, []float64) {
	sum := 0.0
	grad := make([]float64, p.nodes)
	for si, g := range p.Groups {
		y, dq := p.Subs[si].PredictGrad(p.slice(load, g), p.slice(quota, g))
		sum += y
		for li, gi := range g {
			grad[gi] += dq[li]
		}
	}
	return sum, grad
}

// Train jointly fits all sub-models against end-to-end labels: the summed
// output is compared to the label and the loss gradient flows into every
// partition.
func (p *Partitioned) Train(samples []Sample, tc TrainConfig) TrainResult {
	return trainLoop(p.Subs, p.Groups, samples, tc, 0)
}

// Evaluate mirrors Model.Evaluate for the partitioned predictor.
func (p *Partitioned) Evaluate(set []Sample, regions [][2]float64) ([]RegionError, float64) {
	return evaluate(p.Predict, set, regions)
}
