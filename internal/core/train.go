package core

import (
	"math/rand"

	"graf/internal/app"
	"graf/internal/gnn"
	"graf/internal/obs"
)

// The product's learning rate and calibration-probe count (graf.Train's, so
// the repo benchmark's). The figures scale theirs with the iteration budget
// (internal/bench); DESIGN.md §4 says why the two differ.
const (
	ProductLR                = 2e-3
	ProductCalibrationProbes = 12
)

// TrainSpec is one run of the offline path. It is comparable, so a memo can
// key on it.
type TrainSpec struct {
	SLO                        float64 // seconds: Algorithm 1's test; labels above 5×SLO are dropped
	MinRate, MaxRate           float64 // total front-end rates the training set covers
	Samples, Iterations, Batch int
	LR                         float64
	CalibrationProbes          int  // simulator probes fitting the analytic labeller
	SimulatorLabels            bool // label with the simulator instead
	Seed                       int64
	Obs                        *obs.Telemetry // learning curve and batch timing; nil = off
}

// Trained is what the offline path produces.
type Trained struct {
	Bounds  Bounds
	Samples []gnn.Sample
	Model   *gnn.Model
	Result  gnn.TrainResult
}

// TrainConfig is the spec's training-loop configuration.
func (s TrainSpec) TrainConfig() gnn.TrainConfig {
	tc := gnn.DefaultTrainConfig()
	tc.Iterations, tc.Batch, tc.Seed, tc.LR = s.Iterations, s.Batch, s.Seed+60, s.LR
	tc.Obs = obs.NewTrainObs(s.Obs)
	return tc
}

// Train runs the offline path of §3.7/§5: Algorithm 1's bounds, state-aware
// samples labelled by the simulator or the simulator-calibrated analytic
// measurer, then the MPNN latency model. The same spec gives the same bytes.
func Train(a *app.App, s TrainSpec) Trained {
	// Probe the upper bounds near the top of the workload range, so the box
	// admits configurations for the heaviest loads the controller solves for.
	sc := NewSampleCollector(a, NewAnalyticMeasurer(a, 0, s.Seed), s.SLO, 0.75*s.MaxRate)
	sc.ProbeRateLo = s.MinRate
	sc.Seed = s.Seed + 10
	b := sc.ReduceSearchSpace()

	if s.SimulatorLabels {
		sc.M = NewSimMeasurer(a, s.Seed+20)
	} else {
		sc.M = calibratedMeasurer{
			AnalyticMeasurer: NewAnalyticMeasurer(a, 0.15, s.Seed+40),
			Cal:              calibrate(a, b, s.MinRate, s.MaxRate, 5*s.SLO, s.CalibrationProbes, s.Seed+30),
		}
	}
	sc.MaxLatency = 5 * s.SLO
	samples := sc.Collect(s.Samples, s.MinRate, s.MaxRate, b)

	model := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(s.Seed+50)))
	return Trained{Bounds: b, Samples: samples, Model: model, Result: model.Train(samples, s.TrainConfig())}
}
