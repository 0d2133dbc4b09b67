// Package lifecycle implements GRAF's model-trust subsystem: an online
// residual monitor that detects drift between the latency model and the
// cluster it controls, shadow retraining of candidate models on recent
// telemetry, gated canary promotion, and automatic rollback. It closes the
// loop the paper leaves open — the GNN is trained once and trusted forever —
// by demoting a drifted model to the controller's heuristic fallback,
// retraining off the hot path, and only re-trusting a candidate that proves
// itself on live traffic.
package lifecycle

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
