package core

import (
	"graf/internal/cluster"
)

// The anomaly mitigator's one recipe.
const (
	mitigatorIntervalS = 5    // check period
	spikeShortWindowS  = 10   // spike detection window
	spikeLongWindowS   = 120  // baseline window
	spikeFactor        = 1.8  // short/long p95 ratio that flags an anomaly
	spikeRateTol       = 0.25 // max relative arrival-rate change still "unchanged"
	boostQuota         = 250  // extra millicores added per firing
	maxBoost           = 2000 // cap on accumulated extra quota per service
)

// AnomalyMitigator implements the paper's §6 direction of "actively
// removing contention anomalies": GRAF minimizes quota for the given
// workload, which leaves no slack for unexpected resource interference.
// The mitigator watches each microservice's self-latency; a spike over the
// short window relative to its longer baseline — with the arrival rate
// roughly unchanged, so it is not a workload effect GRAF would handle — is
// attributed to contention, and the service temporarily receives extra
// quota until the spike clears.
type AnomalyMitigator struct {
	Cluster *cluster.Cluster

	extra    map[string]float64 // quota added by the mitigator per service
	preBoost map[string]float64 // quota observed before the first boost
	fired    int
	stop     func()
}

// NewAnomalyMitigator returns a mitigator for every microservice of c.
func NewAnomalyMitigator(c *cluster.Cluster) *AnomalyMitigator {
	c.DeclareLookback(cluster.SelfLatency|cluster.ServiceRates, spikeLongWindowS)
	return &AnomalyMitigator{Cluster: c, extra: map[string]float64{}, preBoost: map[string]float64{}}
}

// Start begins the check loop.
func (m *AnomalyMitigator) Start() {
	m.stop = m.Cluster.Eng.Ticker(m.Cluster.Eng.Now()+mitigatorIntervalS, mitigatorIntervalS, m.Step)
}

// Stop halts the check loop.
func (m *AnomalyMitigator) Stop() {
	if m.stop != nil {
		m.stop()
	}
}

// Fired returns how many boost actions the mitigator has taken.
func (m *AnomalyMitigator) Fired() int { return m.fired }

// Extra returns the quota currently added for the named service.
func (m *AnomalyMitigator) Extra(svc string) float64 { return m.extra[svc] }

// Step performs one detection pass across all deployments.
func (m *AnomalyMitigator) Step() {
	for _, name := range m.Cluster.App.ServiceNames() {
		d := m.Cluster.Deployment(name)
		short := d.SelfLatencyQuantile(0.95, spikeShortWindowS)
		long := d.SelfLatencyQuantile(0.95, spikeLongWindowS)
		rShort := d.ArrivalRate(spikeShortWindowS)
		rLong := d.ArrivalRate(spikeLongWindowS)
		if long <= 0 || rLong <= 0 {
			continue
		}
		rateShift := (rShort - rLong) / rLong
		if rateShift < 0 {
			rateShift = -rateShift
		}
		spiking := short > long*spikeFactor && rateShift <= spikeRateTol
		switch {
		case spiking && m.extra[name] < maxBoost:
			if m.extra[name] == 0 {
				m.preBoost[name] = d.Quota()
			}
			m.extra[name] += boostQuota
			m.fired++
			d.SetQuota(d.Quota() + boostQuota)
		case !spiking && m.extra[name] > 0 && short <= long*1.1:
			// Spike cleared: return the borrowed quota. Never restore below
			// the quota the service held before the first boost — the
			// controller may have re-solved meanwhile, but a restore that
			// undercuts the pre-boost baseline would starve the service on
			// a signal the mitigator itself distorted.
			give := m.extra[name]
			m.extra[name] = 0
			q := d.Quota() - give
			if q < m.preBoost[name] {
				q = m.preBoost[name]
			}
			delete(m.preBoost, name)
			d.SetQuota(q)
		}
	}
}
