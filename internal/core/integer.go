package core

// Integer refinement implements the paper's §6 "Integer Optimization for
// instances scaling" direction: the gradient-descent solver works in real
// numbers, and Eq. 7's ceil to whole CPU units overprovisions by up to one
// unit per microservice. RefineInteger post-processes a solution in units
// of whole instances: it rounds every quota up to the unit grid, then
// greedily removes one unit at a time from the service whose removal keeps
// the predicted latency furthest under the SLO, until no unit can be
// removed without (predicted) violation.
//
// This is a heuristic for an NP-hard problem, as §6 notes; the ablation
// experiment abl-integer quantifies what it recovers of the rounding
// slack.

// RefineInteger returns unit-aligned quotas (multiples of unit, floored at
// lo) with minimal total, starting from sol's quotas. It only ever
// evaluates m.Predict — the same oracle the solver uses.
func RefineInteger(m LatencyModel, load []float64, sloSeconds float64, sol Solution, lo []float64, unit float64) Solution {
	n := len(sol.Quotas)
	q := make([]float64, n)
	// Round up to the unit grid (Eq. 7).
	for i, v := range sol.Quotas {
		units := int(v / unit)
		if float64(units)*unit < v {
			units++
		}
		if units < 1 {
			units = 1
		}
		q[i] = float64(units) * unit
	}

	canDrop := func(i int) (float64, bool) {
		next := q[i] - unit
		if next < lo[i] || next < unit {
			return 0, false
		}
		old := q[i]
		q[i] = next
		lat := m.Predict(load, q)
		q[i] = old
		return lat, lat <= sloSeconds
	}

	for {
		best := -1
		bestLat := sloSeconds
		for i := 0; i < n; i++ {
			if lat, ok := canDrop(i); ok && (best < 0 || lat < bestLat) {
				best = i
				bestLat = lat
			}
		}
		if best < 0 {
			break
		}
		q[best] -= unit
	}

	out := Solution{Quotas: q, Converged: sol.Converged, Iterations: sol.Iterations}
	out.Predicted = m.Predict(load, q)
	for _, v := range q {
		out.TotalQuota += v
	}
	return out
}
