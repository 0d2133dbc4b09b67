package fleet

import (
	"math"

	"graf/internal/gnn"
	"graf/internal/obs"
)

const (
	loadGridRel    = 0.05 // relative width of the logarithmic load grid: loads within ~5% share a point
	quotaGridMC    = 2    // quota quantization grid, millicores
	predCacheSlots = 2048 // prediction-cache slots, in sets of cacheWays (sized in DESIGN.md §3g)
)

// InferenceService shares one gnn.Model between tenants: a quantization grid
// and the prediction cache keyed on it. The model is never replaced (a
// lifecycle tenant, which retrains, predicts privately) and nothing runs in
// the background: a miss is a forward pass on the calling worker, on a
// Scratch borrowed from the model.
type InferenceService struct {
	model *gnn.Model
	nodes int
	logK  float64 // 1 / ln(1 + loadGridRel)

	Cache *PredCache

	tracer *obs.Tracer
}

// NewInferenceService builds a service around m.
func NewInferenceService(m *gnn.Model) *InferenceService {
	return &InferenceService{
		model: m,
		nodes: m.Cfg.Nodes,
		logK:  1 / math.Log1p(loadGridRel),
		Cache: NewPredCache(predCacheSlots, 2*m.Cfg.Nodes, m.Cfg.Nodes),
	}
}

// quantize maps (load, quota) onto the cache grid, filling the
// caller-provided buffers: the reconstructed grid-point inputs (what the
// model is actually evaluated at) and the integer key. Computing at the
// grid point — rather than caching the exact inputs — is what keeps the
// fleet deterministic: hit or miss, the value returned for a key is always
// the value the model produces at that key's grid point, independent of
// cache state or request timing.
func (s *InferenceService) quantize(load, quota, qload, qquota []float64, key []int32) {
	for i, v := range load {
		q := int32(math.Round(math.Log1p(v) * s.logK))
		key[i] = q
		qload[i] = math.Expm1(float64(q) / s.logK)
	}
	for i, v := range quota {
		q := int32(math.Round(v / quotaGridMC))
		key[s.nodes+i] = q
		qquota[i] = float64(q) * quotaGridMC
	}
}

// NewPredictor returns a core.LatencyModel handle for one tenant. Each
// handle owns reusable buffers and assumes at most one call in flight at a
// time (the controller's solver is synchronous), so handles must not be
// shared between tenants.
func (s *InferenceService) NewPredictor() *TenantPredictor {
	return &TenantPredictor{
		svc:    s,
		qload:  make([]float64, s.nodes),
		qquota: make([]float64, s.nodes),
		dq:     make([]float64, s.nodes),
		key:    make([]int32, 2*s.nodes),
	}
}

// TenantPredictor adapts the shared service to core.LatencyModel for one
// tenant: it quantizes inputs onto the cache grid, serves hits from the
// cache and on a miss calls the model at the grid point.
type TenantPredictor struct {
	svc    *InferenceService
	qload  []float64
	qquota []float64
	dq     []float64
	key    []int32
	span   obs.SpanContext
}

// SetSpan parents the predictor's subsequent forward passes under the
// tenant's current tick span (the zero context clears it). Called by the
// fleet before each tick, from the tenant's owning worker.
func (p *TenantPredictor) SetSpan(c obs.SpanContext) { p.span = c }

// pass opens the span of one forward pass; nil (a no-op) when the tick is
// not traced. Spans never feed back into decisions. obs.StitchedTrace, the
// drill verdict and the benchmark match on the name.
func (p *TenantPredictor) pass() *obs.ActiveSpan {
	if !p.span.Valid() {
		return nil
	}
	return p.svc.tracer.StartChild(p.span, "inference/batch").SetAttr("size", 1)
}

// Predict implements core.LatencyModel.
func (p *TenantPredictor) Predict(load, quota []float64) float64 {
	s := p.svc
	s.quantize(load, quota, p.qload, p.qquota, p.key)
	h := hashKey(p.key)
	if lat, ok := s.Cache.Get(h, p.key, nil); ok {
		return lat
	}
	span := p.pass()
	lat := s.model.Predict(p.qload, p.qquota)
	span.End()
	s.Cache.Put(h, p.key, lat, nil)
	return lat
}

// PredictGrad implements core.LatencyModel. The returned slice is owned by
// the predictor and valid until its next call — exactly the contract the
// solver's iteration loop needs.
func (p *TenantPredictor) PredictGrad(load, quota []float64) (float64, []float64) {
	s := p.svc
	s.quantize(load, quota, p.qload, p.qquota, p.key)
	h := hashKey(p.key)
	if lat, ok := s.Cache.Get(h, p.key, p.dq); ok {
		return lat, p.dq
	}
	span := p.pass()
	lat := s.model.PredictGradInto(p.qload, p.qquota, p.dq)
	span.End()
	s.Cache.Put(h, p.key, lat, p.dq)
	return lat, p.dq
}
