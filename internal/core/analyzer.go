// Package core implements the GRAF framework itself (§3): the state and
// trace collector, the workload analyzer, the state-aware sample collector
// with Algorithm 1's search-space reduction, the gradient-descent
// configuration solver over the trained latency model, the resource
// controller, and the end-to-end proactive control loop.
package core

import (
	"sort"

	"graf/internal/app"
	"graf/internal/trace"
)

// LatencyModel is the trained Latency Prediction Model contract (§3.4). It
// is satisfied by *gnn.Model; tests also satisfy it with analytic oracles.
// A solve makes tens of calls, so implementations should reuse their buffers
// between calls (*gnn.Model borrows them from a per-model free list).
type LatencyModel interface {
	// Predict returns end-to-end tail latency in seconds for per-node
	// workloads (req/s) and CPU quotas (millicores).
	Predict(load, quota []float64) float64
	// PredictGrad additionally returns ∂latency/∂quota per node. The slice
	// may be the implementation's own buffer, valid only until its next
	// call (fleet.TenantPredictor's is); callers copy what they keep.
	PredictGrad(load, quota []float64) (latency float64, dQuota []float64)
}

// Analyzer is the Workload Analyzer (§3.3): it converts front-end per-API
// workloads into the per-microservice workload distribution that forms the
// GNN's node states, using the 90th-percentile visit counts extracted from
// tracing data. It is not safe for concurrent use: Refresh and Distribute
// refill its buffers.
type Analyzer struct {
	App *app.App

	// VisitQuantile selects which quantile of per-trace visit counts
	// represents an API's behaviour (paper: 0.90).
	VisitQuantile float64

	// profiles[api][service] is the visit multiplicity learned from traces;
	// Refresh refills each API's map in place.
	profiles map[string]map[string]float64
	apis     []string // Distribute's sorted API names, reused by every call
}

// NewAnalyzer returns an analyzer for application a with the paper's 90th
// percentile visit extraction.
func NewAnalyzer(a *app.App) *Analyzer {
	return &Analyzer{App: a, VisitQuantile: 0.90, profiles: map[string]map[string]float64{}}
}

// Refresh re-derives per-API visit profiles from collected traces. APIs with
// no traces yet fall back to the application's declared call tree, so the
// analyzer degrades gracefully during cold start.
func (an *Analyzer) Refresh(tc *trace.Collector) {
	for _, api := range an.App.APIs {
		if p := tc.VisitProfile(api.Name, an.VisitQuantile, an.profiles[api.Name]); p != nil {
			an.profiles[api.Name] = p
		}
	}
}

// SnapshotProfiles deep-copies the learned per-API visit profiles for
// checkpointing into dst, reusing its maps (dst may be nil). Returns nil
// when nothing has been learned yet.
func (an *Analyzer) SnapshotProfiles(dst map[string]map[string]float64) map[string]map[string]float64 {
	if len(an.profiles) == 0 {
		return nil
	}
	if dst == nil {
		dst = make(map[string]map[string]float64, len(an.profiles))
	}
	for api := range dst {
		if _, ok := an.profiles[api]; !ok {
			delete(dst, api)
		}
	}
	for api, p := range an.profiles {
		dst[api] = refill(dst[api], p)
	}
	return dst
}

// RestoreProfiles replaces the learned visit profiles with a checkpointed
// copy, so a restored analyzer serves the same distributions it had learned
// before the crash even if the trace window is empty after restart.
func (an *Analyzer) RestoreProfiles(profiles map[string]map[string]float64) {
	an.profiles = map[string]map[string]float64{}
	for api, p := range profiles {
		cp := make(map[string]float64, len(p))
		for svc, m := range p {
			cp[svc] = m
		}
		an.profiles[api] = cp
	}
}

// visits returns the visit profile for api, preferring traced data.
func (an *Analyzer) visits(api string) map[string]float64 {
	if p, ok := an.profiles[api]; ok {
		return p
	}
	return an.App.Visits(api)
}

// Distribute converts per-API frontend rates into the per-service workload
// vector (indexed like App.Services) the latency model consumes.
func (an *Analyzer) Distribute(apiRates map[string]float64) []float64 {
	return an.distributeInto(make([]float64, len(an.App.Services)), apiRates)
}

// distributeInto is Distribute into load, which it zeroes first: the
// controller passes a vector it keeps across decisions.
func (an *Analyzer) distributeInto(load []float64, apiRates map[string]float64) []float64 {
	clear(load)
	// Deterministic iteration.
	apis := an.apis[:0]
	for api := range apiRates {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	an.apis = apis
	for _, api := range apis {
		rate := apiRates[api]
		if rate <= 0 {
			continue
		}
		for svc, mult := range an.visits(api) {
			if i := an.App.ServiceIndex(svc); i >= 0 {
				load[i] += rate * mult
			}
		}
	}
	return load
}
