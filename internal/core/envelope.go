package core

// envelopeClamp is the solver-output guardrail applied while the model
// driving the solver is on probation (see envelopeStepUp): it bounds each
// proposed quota against last to [old × envelopeStepDown, old ×
// envelopeStepUp], and every quota to at least envelopeMinQuota. Services
// absent from last (or with a non-positive last quota) only get the floor —
// there is no step to bound. The input maps are not mutated; the second
// return reports whether any quota was changed.
//
// It is a pure function so its contract can be property-tested in
// isolation: bounded steps, a hard floor, and convergence — iterating the
// clamp against a fixed target reaches the target, so once the model is
// trusted again the applied configuration converges to the unclamped
// solution.
func envelopeClamp(proposed, last map[string]float64) (map[string]float64, bool) {
	out := make(map[string]float64, len(proposed))
	clamped := false
	for k, v := range proposed {
		if old := last[k]; old > 0 {
			if v > old*envelopeStepUp {
				v = old * envelopeStepUp
				clamped = true
			}
			if v < old*envelopeStepDown {
				v = old * envelopeStepDown
				clamped = true
			}
		}
		if v < envelopeMinQuota {
			v = envelopeMinQuota
			clamped = true
		}
		out[k] = v
	}
	return out, clamped
}
