// Package lifecycle implements GRAF's model-trust subsystem: an online
// residual monitor that detects drift between the latency model and the
// cluster it controls, shadow retraining of candidate models on recent
// telemetry, gated canary promotion, and automatic rollback. It closes the
// loop the paper leaves open — the GNN is trained once and trusted forever —
// by demoting a drifted model to the controller's heuristic fallback,
// retraining off the hot path, and only re-trusting a candidate that proves
// itself on live traffic.
package lifecycle

import "sort"

// median returns the middle order statistic without mutating its argument.
func median(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return tmp[n/2]
	}
	return 0.5 * (tmp[n/2-1] + tmp[n/2])
}

// quantile returns the q-th order statistic (nearest-rank) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	i := int(q * float64(len(tmp)-1))
	if i < 0 {
		i = 0
	}
	if i > len(tmp)-1 {
		i = len(tmp) - 1
	}
	return tmp[i]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
