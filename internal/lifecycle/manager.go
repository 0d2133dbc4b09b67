package lifecycle

import (
	"fmt"
	"math"
	"path/filepath"

	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/forecast"
	"graf/internal/gnn"
	"graf/internal/metrics"
	"graf/internal/obs"
)

// Phase is the lifecycle state machine (DESIGN.md §3f):
//
//	Trusted ──trip──▶ Drifted ──retrain──▶ Shadow ──gates pass──▶ Probation ──clean──▶ Trusted
//	   ▲                 ▲  ▲                 │gates fail              │regrade
//	   └──recover────────┘  └─────────────────┘◀──────rollback─────────┘
type Phase int

const (
	// PhaseTrusted: the incumbent drives the solver unconstrained.
	PhaseTrusted Phase = iota
	// PhaseDrifted: the monitor tripped; the controller is on its heuristic
	// fallback while fresh samples accumulate for retraining.
	PhaseDrifted
	// phaseShadow: a retrained candidate is being scored on live traffic
	// against the incumbent, without driving anything.
	phaseShadow
	// PhaseProbation: the candidate was promoted and drives the solver
	// under the envelope clamp until the probation window passes clean.
	PhaseProbation
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseTrusted:
		return "Trusted"
	case PhaseDrifted:
		return "Drifted"
	case phaseShadow:
		return "Shadow"
	case PhaseProbation:
		return "Probation"
	}
	return "Unknown"
}

// Config is what a caller gives the lifecycle manager: the offline training
// set and the archive directory. Every tuning value is a constant below.
type Config struct {
	// BaseSamples, if set, is the offline training set (§3.7 pipeline).
	// Live telemetry clusters around one operating point, so a candidate
	// fine-tuned on it alone forgets the rest of the quota box and fails
	// the monotone gates. Retraining therefore replays the base set
	// re-registered onto the drifted surface under a work-multiplier
	// hypothesis: service time is work/quota, so inflating per-request
	// work by κ and quota by κ leaves latency unchanged — the replayed
	// sample (load, κ·quota, latency) lies on the new surface. κ is fit
	// per fresh sample as the rescale that makes the incumbent's
	// prediction match the observation, then pooled by median. The fresh
	// samples ride along and carry the exact local truth, gates veto the
	// result when the hypothesis was wrong.
	BaseSamples []gnn.Sample

	// Dir, when non-empty, persists every model generation as a
	// generation-numbered GRAFMDL1 file (model-00000001.graf …) via the
	// SaveModel callback.
	Dir string
}

const (
	// windowS is the trailing telemetry window for rates and p99.
	windowS = 15

	// minRate and minP99 gate signal quality: ticks with less observed
	// traffic or no measured tail are skipped entirely.
	minRate = 1
	minP99  = 1e-4

	// recoverEWMA and recoverTicks re-trust a demoted incumbent without
	// retraining: if its residual EWMA stays below recoverEWMA for
	// recoverTicks consecutive ticks while drifted, the drift was transient
	// (e.g. a contention burst that expired) and the incumbent is restored.
	recoverEWMA  = 0.15
	recoverTicks = 6

	// sampleWindow bounds the rolling (load, quota, p99) sample buffer.
	sampleWindow = 240
	// driftLookback is how many of the freshest samples survive a drift
	// trip: older ones describe the pre-drift surface and would dilute the
	// retraining set.
	driftLookback = 6
	// minRetrainSamples is the floor below which retraining waits for more
	// data.
	minRetrainSamples = 20

	// Retraining budget. The candidate is a fine-tuned clone of the
	// incumbent: warm-starting preserves the global surface while the
	// fresh samples correct the drifted region — and is cheap enough to
	// run inside one control tick.
	retrainIters = 300
	retrainBatch = 32
	retrainLR    = 1e-3

	// retrainSeed derives the deterministic retraining seeds.
	retrainSeed = 1

	// rescaleLo and rescaleHi clamp the fitted quota rescale κ.
	rescaleLo = 0.5
	rescaleHi = 4

	// boundsScaleCap caps how far promotion may widen the solver's upper
	// quota bounds. Algorithm 1's box was probed on the pre-drift surface;
	// when work per request inflates, the SLO-feasible region can leave
	// that box entirely, so each promotion scales Bounds.Hi by the
	// observed label-rescale ratio (never shrinking, never beyond
	// boundsScaleCap × the original bounds).
	boundsScaleCap = 2

	// cooldownTicks is the back-off after a rejected candidate or a
	// rollback before the next retraining attempt.
	cooldownTicks = 12

	// shadowTicks is the live canary scoring window (in manager ticks).
	shadowTicks = 10

	// promoteMargin: the candidate's shadow residual must be below
	// incumbent×promoteMargin to promote — parity is not enough to justify
	// a model swap.
	promoteMargin = 0.85

	// probationTicks is how long a promoted model stays under the envelope
	// clamp with a fresh monitor before earning full trust.
	probationTicks = 24

	// predCapFactor bounds the prediction envelope gate at
	// predCapFactor×SLO; monotoneTol is the tolerance of the monotone and
	// gradient-sign gates.
	predCapFactor = 20
	monotoneTol   = 0.10

	// latencyCapFactor clamps p99 training labels at latencyCapFactor×SLO,
	// like the offline pipeline, so violation storms don't blow up the
	// regression target.
	latencyCapFactor = 5
)

// Manager runs the model lifecycle against one controller. Everything it
// consumes is read from cluster telemetry on its own ticker, off the
// controller's decision path: the controller's solves stay bit-identical
// whether or not a manager is attached, except where the manager explicitly
// swaps the model or its trust level.
type Manager struct {
	Cl     *cluster.Cluster
	Cfg    Config
	SLO    float64
	Bounds core.Bounds

	// Obs, if set, records residual gauges and lifecycle events into the
	// telemetry subsystem (and through it into the audit log).
	Obs *obs.LifecycleObs

	// OnEvent, if set, observes every lifecycle event (for CLI logging).
	OnEvent func(at float64, kind, detail string)

	// SaveModel persists one model generation to a file. The fleet wires it
	// to the public TrainedModel Save (GRAFMDL1 framing); nil keeps the
	// archive in memory only.
	SaveModel func(m *gnn.Model, path string) error

	ctl *core.Controller
	an  *core.Analyzer

	incumbent *gnn.Model
	gen       int
	phase     Phase

	mon        *monitor
	hampelP99  *forecast.Hampel
	hampelRate map[string]*forecast.Hampel
	rates      map[string]float64 // the Hampel-filtered per-API rates, refilled every tick
	samples    []gnn.Sample

	candidate  *gnn.Model
	shadowLeft int
	shadowN    int
	candErrSum float64
	incErrSum  float64
	shadowFrom Phase

	probLeft int
	prevGen  int

	cooldown      int
	recoverStreak int
	lastRatio     float64 // label rescale ratio of the latest retrain
	boundsScale   float64 // cumulative Bounds.Hi widening (1 = original box)

	archive map[int]*gnn.Model

	trips, promotions, rollbacks, rejections, retrains, recoveries int

	stop func()
}

// NewManager wires a lifecycle manager for a cluster. model is generation 0;
// bounds are the solver's (Algorithm 1) bounds, reused for gate probes.
func NewManager(cl *cluster.Cluster, model *gnn.Model, b core.Bounds, slo float64, cfg Config) *Manager {
	cl.DeclareLookback(cluster.APIRates|cluster.E2ELatency, windowS)
	m := &Manager{
		Cl: cl, Cfg: cfg, SLO: slo, Bounds: b,
		an:          core.NewAnalyzer(cl.App),
		incumbent:   model,
		mon:         &monitor{},
		hampelP99:   &forecast.Hampel{},
		hampelRate:  map[string]*forecast.Hampel{},
		rates:       make(map[string]float64, len(cl.APINames())),
		archive:     map[int]*gnn.Model{0: model},
		lastRatio:   1,
		boundsScale: 1,
	}
	m.persistGen(0, model)
	return m
}

// Attach binds the manager to a controller and applies the manager's view of
// the model world. On a matching controller (fresh boot at generation 0, or
// a warm restore whose ControllerState already carries this generation and
// trust) the apply is non-destructive — only the Model pointer is set, so a
// restored controller's hysteresis and breaker state survive byte-identical.
func (m *Manager) Attach(ctl *core.Controller) {
	m.ctl = ctl
	if ctl == nil {
		return
	}
	if ctl.ModelGen() != m.gen {
		ctl.SetModel(m.incumbent, m.gen)
	} else {
		ctl.Model = m.incumbent
	}
	if want := m.trustFor(m.phase); ctl.Trust() != want {
		ctl.SetTrust(want)
	}
	if m.boundsScale > 1 {
		ctl.Bounds = m.scaledBounds()
	}
}

// trustFor maps a lifecycle phase to the controller trust level.
func (m *Manager) trustFor(p Phase) core.ModelTrust {
	switch p {
	case PhaseDrifted:
		return core.ModelUntrusted
	case PhaseProbation:
		return core.ModelProbation
	case phaseShadow:
		return m.trustFor(m.shadowFrom)
	}
	return core.ModelTrusted
}

// Phase returns the current lifecycle phase.
func (m *Manager) Phase() Phase { return m.phase }

// Generation returns the incumbent model's generation number.
func (m *Manager) Generation() int { return m.gen }

// Stats returns the lifecycle event counters: drift trips, promotions,
// rollbacks, gate rejections, retrains, incumbent recoveries.
func (m *Manager) Stats() (trips, promotions, rollbacks, rejections, retrains, recoveries int) {
	return m.trips, m.promotions, m.rollbacks, m.rejections, m.retrains, m.recoveries
}

// Models returns every model generation seen this run, for multi-generation
// audit replay (core.ReplayAuditModels).
func (m *Manager) Models() map[int]core.LatencyModel {
	out := make(map[int]core.LatencyModel, len(m.archive))
	for g, mod := range m.archive {
		out[g] = mod
	}
	return out
}

// Samples returns a copy of the rolling retraining window (for tests and
// offline inspection).
func (m *Manager) Samples() []gnn.Sample {
	return append([]gnn.Sample(nil), m.samples...)
}

// Start begins the lifecycle ticker, on the controller's decision interval.
// The phase offset places it after the controller's tick at the same
// instant, so each tick observes the quotas the controller just applied.
func (m *Manager) Start() {
	eng := m.Cl.Eng
	m.stop = eng.Ticker(eng.Now()+0.0037, core.IntervalS, m.Tick)
}

// Stop halts the ticker.
func (m *Manager) Stop() {
	if m.stop != nil {
		m.stop()
	}
}

// event emits one lifecycle event to every observer.
func (m *Manager) event(kind, detail string) {
	at := m.Cl.Eng.Now()
	if m.OnEvent != nil {
		m.OnEvent(at, kind, detail)
	}
	m.Obs.Event(at, kind, m.gen, detail, map[string]float64{
		"trips": float64(m.trips), "promotions": float64(m.promotions),
		"rollbacks": float64(m.rollbacks), "rejections": float64(m.rejections),
	})
}

// Tick runs one lifecycle step: sanitize telemetry, score residuals, and
// advance the state machine. Exported so tests can drive it directly.
func (m *Manager) Tick() {
	if m.cooldown > 0 {
		m.cooldown--
	}
	now := m.Cl.Eng.Now()

	// Sanitized telemetry. Per-API rates and the measured p99 each pass
	// through their own Hampel filter before anything downstream sees them.
	// The sum runs in APINames' sorted order, so it is bit-identical run to
	// run.
	rates := m.rates
	total := 0.0
	for _, api := range m.Cl.APINames() {
		h, ok := m.hampelRate[api]
		if !ok {
			h = &forecast.Hampel{}
			m.hampelRate[api] = h
		}
		rates[api] = h.Push(m.Cl.APIArrivalRate(api, windowS))
		total += rates[api]
	}
	p99 := m.hampelP99.Push(m.Cl.E2ELatencyQuantile(0.99, windowS))

	if total < minRate || p99 <= minP99 {
		return // no signal this tick
	}

	// Operating point: distributed load over the graph, realized quotas.
	m.an.Refresh(m.Cl.Traces())
	load := m.an.Distribute(rates)
	realized := m.Cl.RealizedQuotas()
	quota := make([]float64, len(load))
	for i, name := range m.Cl.App.ServiceNames() {
		quota[i] = realized[name]
	}

	// Rolling retraining sample, label capped like the offline pipeline.
	label := min(p99, latencyCapFactor*m.SLO)
	m.samples = append(m.samples, gnn.Sample{
		Load:    append([]float64(nil), load...),
		Quota:   append([]float64(nil), quota...),
		Latency: label,
	})
	if len(m.samples) > sampleWindow {
		m.samples = m.samples[len(m.samples)-sampleWindow:]
	}

	// Residual of the incumbent at the operating point. While ordered
	// capacity is still materializing, measured p99 carries the backlog of
	// the old configuration — a residual against it says nothing about the
	// model (the same gate the controller's boost path uses before
	// compounding), so the monitor does not fold it. The sample above is
	// still kept: the Hampel filters and the label cap bound its damage,
	// and retraining needs the data.
	pred := m.incumbent.Predict(load, quota)
	r := (p99 - pred) / p99
	if m.Cl.PendingInstances() == 0 {
		m.mon.Observe(r)
		m.Obs.Residual(now, r, m.mon.EWMA, m.mon.Cusum())
	}

	switch m.phase {
	case PhaseTrusted:
		if m.mon.Tripped() {
			m.trip()
		}

	case PhaseDrifted:
		// Transient drift (an expired contention burst) clears on its own:
		// re-trust the incumbent instead of retraining.
		if m.mon.EWMA < recoverEWMA {
			m.recoverStreak++
			if m.recoverStreak >= recoverTicks {
				m.recoveries++
				m.phase = PhaseTrusted
				m.mon.Reset()
				m.setTrust()
				m.event("recover", fmt.Sprintf("incumbent gen %d re-trusted after transient drift", m.gen))
				return
			}
		} else {
			m.recoverStreak = 0
		}
		if m.cooldown == 0 && len(m.samples) >= minRetrainSamples {
			m.startShadow(PhaseDrifted)
		}

	case phaseShadow:
		// Score both models on this live tick. The candidate sees traffic
		// it never trained on (its window ended at retrain time).
		cp := m.candidate.Predict(load, quota)
		m.candErrSum += abs(p99-cp) / p99
		m.incErrSum += abs(r)
		m.shadowN++
		m.shadowLeft--
		if m.shadowLeft <= 0 {
			m.judge()
		}

	case PhaseProbation:
		// The monitor was reset at promotion, so it scores the promoted
		// model alone. A trip inside probation is a regrade: roll back.
		if m.mon.Tripped() {
			m.rollback()
			return
		}
		m.probLeft--
		if m.probLeft <= 0 {
			m.phase = PhaseTrusted
			m.setTrust()
			m.event("trusted", fmt.Sprintf("gen %d promoted to full trust after clean probation", m.gen))
		}
	}
}

// setTrust pushes the current phase's trust level to the controller.
func (m *Manager) setTrust() {
	if m.ctl != nil {
		m.ctl.SetTrust(m.trustFor(m.phase))
	}
}

// trip demotes the incumbent: the controller falls back to its demand-floor
// heuristic and the sample window is truncated to the freshest ticks — the
// only ones that describe the post-drift surface.
func (m *Manager) trip() {
	m.trips++
	m.phase = PhaseDrifted
	m.recoverStreak = 0
	detail := fmt.Sprintf("gen %d demoted: ewma=%.3f cusum=%.3f", m.gen, m.mon.EWMA, m.mon.Cusum())
	if len(m.samples) > driftLookback {
		m.samples = append([]gnn.Sample(nil), m.samples[len(m.samples)-driftLookback:]...)
	}
	m.setTrust()
	m.event("drift-trip", detail)
}

// fitKappa finds the per-sample work-multiplier: the κ for which the
// incumbent's prediction at quota/κ matches the observed latency (the
// cluster behaving like the old one with κ× less CPU). Grid search over a
// log scale — the surface is monotone in quota, so 33 points suffice.
func (m *Manager) fitKappa(s gnn.Sample) float64 {
	best, bestErr := 1.0, abs(m.incumbent.Predict(s.Load, s.Quota)-s.Latency)
	q := make([]float64, len(s.Quota))
	const steps = 32
	for i := 0; i <= steps; i++ {
		k := rescaleLo * math.Pow(rescaleHi/rescaleLo, float64(i)/steps)
		for j, v := range s.Quota {
			q[j] = v / k
		}
		if e := abs(m.incumbent.Predict(s.Load, q) - s.Latency); e < bestErr {
			best, bestErr = k, e
		}
	}
	return best
}

// retrainSet assembles the candidate's training data: the fresh rolling
// window plus, when a base set is configured, the offline samples
// re-registered onto the drifted surface by the pooled quota rescale κ.
func (m *Manager) retrainSet() []gnn.Sample {
	fresh := m.Samples()
	if len(m.Cfg.BaseSamples) == 0 {
		return fresh
	}
	kappas := make([]float64, 0, len(fresh))
	for _, s := range fresh {
		kappas = append(kappas, m.fitKappa(s))
	}
	kappa := 1.0
	if len(kappas) > 0 {
		kappa = metrics.Median(kappas)
	}
	m.lastRatio = kappa
	set := make([]gnn.Sample, 0, len(m.Cfg.BaseSamples)+len(fresh))
	for _, s := range m.Cfg.BaseSamples {
		q := make([]float64, len(s.Quota))
		for j, v := range s.Quota {
			q[j] = v * kappa
		}
		set = append(set, gnn.Sample{Load: s.Load, Quota: q, Latency: s.Latency})
	}
	return append(set, fresh...)
}

// startShadow retrains a candidate on the rolling window and opens the
// shadow-scoring canary. Retraining fine-tunes a clone of the incumbent with
// a deterministic seed, entirely off the controller's decision path.
func (m *Manager) startShadow(from Phase) {
	m.retrains++
	m.candidate = m.incumbent.Clone()
	set := m.retrainSet()
	m.candidate.Train(set, gnn.TrainConfig{
		Iterations: retrainIters,
		Batch:      retrainBatch,
		LR:         retrainLR,
		ValFrac:    0.2,
		TestFrac:   0,
		Seed:       retrainSeed + int64(m.gen+1)*1000 + int64(m.retrains),
		EvalEvery:  retrainIters, // evaluate only first and last
	})
	m.shadowFrom = from
	m.phase = phaseShadow
	m.shadowLeft = shadowTicks
	m.shadowN = 0
	m.candErrSum, m.incErrSum = 0, 0
	m.event("retrain", fmt.Sprintf("candidate for gen %d trained on %d fresh + %d replayed samples",
		m.gen+1, len(m.samples), len(set)-len(m.samples)))
}

// judge closes the shadow window: run the promotion gates and either promote
// the candidate or reject it and cool down.
func (m *Manager) judge() {
	candShadow, incShadow := 0.0, 0.0
	if m.shadowN > 0 {
		candShadow = m.candErrSum / float64(m.shadowN)
		incShadow = m.incErrSum / float64(m.shadowN)
	}
	g := gateCandidate(m.candidate, m.incumbent, m.samples, m.scaledBounds(), m.SLO,
		candShadow, incShadow, m.shadowN)
	if !g.Pass {
		m.rejections++
		m.candidate = nil
		m.phase = m.shadowFrom
		m.cooldown = cooldownTicks
		m.setTrust()
		m.event("gate-reject", g.String())
		return
	}
	m.promote(g)
}

// scaledBounds returns the manager's base box with Hi widened by the
// cumulative bounds scale.
func (m *Manager) scaledBounds() core.Bounds {
	if m.boundsScale <= 1 {
		return m.Bounds
	}
	hi := make([]float64, len(m.Bounds.Hi))
	for i, v := range m.Bounds.Hi {
		hi[i] = v * m.boundsScale
	}
	return core.Bounds{Lo: m.Bounds.Lo, Hi: hi}
}

// widenBounds grows the cumulative bounds scale toward the latest observed
// label-rescale ratio and pushes the widened box to the controller. The box
// only ever widens: the ratio measures how far the cluster's real demand
// surface moved, which does not revert when a model is rolled back.
func (m *Manager) widenBounds() {
	s := min(max(m.lastRatio, m.boundsScale), boundsScaleCap)
	if s == m.boundsScale {
		return
	}
	m.boundsScale = s
	if m.ctl != nil {
		m.ctl.Bounds = m.scaledBounds()
	}
	m.event("widen-bounds", fmt.Sprintf("solver Hi bounds widened to %.2f× the probed box", s))
}

// promote archives the incumbent, installs the candidate as the new
// generation, and opens the probation window under the envelope clamp.
func (m *Manager) promote(g gateResult) {
	m.promotions++
	m.prevGen = m.gen
	m.gen++
	m.incumbent = m.candidate
	m.candidate = nil
	m.archive[m.gen] = m.incumbent
	m.persistGen(m.gen, m.incumbent)
	m.phase = PhaseProbation
	m.probLeft = probationTicks
	m.mon.Reset() // the promoted model starts with a clean record
	m.widenBounds()
	if m.ctl != nil {
		m.ctl.SetModel(m.incumbent, m.gen)
	}
	m.setTrust()
	m.event("promote", fmt.Sprintf("gen %d canary-promoted (%s), probation %d ticks",
		m.gen, g.String(), m.probLeft))
}

// rollback restores the archived previous generation after a probation
// regrade. The restored incumbent is still the model that drifted, so the
// phase returns to Drifted (heuristic fallback) and retraining backs off.
func (m *Manager) rollback() {
	m.rollbacks++
	bad := m.gen
	prev, ok := m.archive[m.prevGen]
	if !ok {
		prev = m.incumbent // nothing archived: keep serving, stay demoted
	}
	detail := fmt.Sprintf("gen %d regraded in probation (ewma=%.3f cusum=%.3f): rolled back to gen %d",
		bad, m.mon.EWMA, m.mon.Cusum(), m.prevGen)
	m.incumbent = prev
	m.gen = m.prevGen
	m.phase = PhaseDrifted
	m.recoverStreak = 0
	m.cooldown = cooldownTicks
	m.mon.Reset()
	if m.ctl != nil {
		m.ctl.SetModel(m.incumbent, m.gen)
	}
	m.setTrust()
	m.event("rollback", detail)
}

// PersistIncumbent writes the current incumbent generation to the archive
// directory. Callers that wire SaveModel after NewManager (fleet tenants)
// invoke it once so generation 0 reaches disk like every later generation.
func (m *Manager) PersistIncumbent() { m.persistGen(m.gen, m.incumbent) }

// persistGen writes one generation to the archive directory, when
// configured. Persistence failures are reported as events, never fatal: the
// in-memory archive still serves rollback.
func (m *Manager) persistGen(gen int, mod *gnn.Model) {
	if m.Cfg.Dir == "" || m.SaveModel == nil {
		return
	}
	path := filepath.Join(m.Cfg.Dir, fmt.Sprintf("model-%08d.graf", gen))
	if err := m.SaveModel(mod, path); err != nil && m.OnEvent != nil {
		m.OnEvent(m.Cl.Eng.Now(), "archive-error", err.Error())
	}
}
