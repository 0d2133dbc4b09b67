package nn

// AsymmetricHuber is the paper's Eq. 4 loss over the percentage error
// x = (prediction − truth)/truth.
//
// Inside (−ThetaUnder, ThetaOver) the loss is quadratic (x²); beyond either
// threshold it continues linearly with slope 2θ, which caps the influence
// of the irregular extreme-value samples 99%-tile latency produces. The
// under-estimation side uses the larger θ so under-predictions stay in the
// steep quadratic regime longer and, once linear, keep the steeper slope —
// "it gives more penalty if the latency prediction of the model is lower
// than the actual value" (§3.4). The trained model therefore slightly
// overestimates, which is what lets GRAF treat the prediction as a safe SLO
// violation detector.
//
// Note on constants: the paper's Table 1 lists θL = 0.1, θR = 0.3 while the
// text says θL was "chosen as a larger value than θR". We follow the text's
// intent (penalize underestimation more) and keep the published pair of
// values: θ_under = 0.3, θ_over = 0.1.
type AsymmetricHuber struct {
	ThetaUnder float64 // threshold on the under-estimation side (x < 0)
	ThetaOver  float64 // threshold on the over-estimation side (x > 0)
}

// PaperLoss returns Eq. 4 with the published constants.
func PaperLoss() AsymmetricHuber { return AsymmetricHuber{ThetaUnder: 0.3, ThetaOver: 0.1} }

// Loss returns the loss and its derivative with respect to the prediction,
// given prediction pred and ground truth truth (> 0).
func (h AsymmetricHuber) Loss(pred, truth float64) (loss, dPred float64) {
	if truth <= 0 {
		return 0, 0
	}
	x := (pred - truth) / truth
	dxdPred := 1 / truth
	tu, to := h.ThetaUnder, h.ThetaOver
	var dx float64
	switch {
	case x < -tu:
		loss = -tu * (2*x + tu)
		dx = -2 * tu
	case x < to:
		loss = x * x
		dx = 2 * x
	default:
		// The paper prints this branch as θR(2x+θR), which is discontinuous
		// at x=θR; the left branch implies the standard Hüber
		// linearization θ(2|x|−θ), so we use θR(2x−θR).
		loss = to * (2*x - to)
		dx = 2 * to
	}
	return loss, dx * dxdPred
}

// MSE is plain mean-squared error on percentage error, the ablation
// baseline for the abl-loss experiment.
type MSE struct{}

// Loss returns the squared percentage error and its derivative w.r.t. pred.
func (MSE) Loss(pred, truth float64) (loss, dPred float64) {
	if truth <= 0 {
		return 0, 0
	}
	x := (pred - truth) / truth
	return x * x, 2 * x / truth
}

// LossFunc is the training-loss contract; Loss is called concurrently.
type LossFunc interface {
	Loss(pred, truth float64) (loss, dPred float64)
}
