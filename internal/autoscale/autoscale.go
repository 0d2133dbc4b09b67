// Package autoscale implements the resource-allocation baselines GRAF is
// evaluated against: the Kubernetes Horizontal Pod Autoscaler (threshold on
// CPU utilization, per-deployment, with the production control interval and
// scale-down stabilization window), a FIRM-like controller (per-service
// tail/median latency-ratio trigger, [53]), and the hand-provisioned
// Proactive oracle of §2.1's opportunity analysis.
package autoscale

import (
	"math"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/metrics"
)

// The HPA's constants: the Kubernetes defaults, which the evaluation runs
// unchanged. Only the utilization threshold is tuned (§5.3).
const (
	// k8sSyncS is how often scaling decisions are made (paper: 15 s).
	k8sSyncS = 15.0

	// k8sMetricWindowS is the trailing window utilization is averaged over.
	k8sMetricWindowS = 30.0

	// k8sTolerance suppresses scaling while |ratio−1| is inside it.
	k8sTolerance = 0.1

	// k8sStabilizationS is the scale-down stabilization window: the HPA
	// applies the highest recommendation of the past window — the cause of
	// the slow scale-down in Fig 20.
	k8sStabilizationS = 300.0

	// k8sScaleUpPercent and k8sScaleUpPods bound one sync period's scale-up
	// to max(current×(1+percent/100), current+pods), the default scale-up
	// policy. This is what makes the HPA ramp incrementally during a surge
	// (Fig 21) instead of jumping.
	k8sScaleUpPercent = 100.0
	k8sScaleUpPods    = 4

	// hpaMinReplicas and hpaMaxReplicas bound every deployment's replica
	// count: minReplicas' default, and the maxReplicas every HPA object
	// must name.
	hpaMinReplicas = 1
	hpaMaxReplicas = 200
)

// HPA drives every deployment of a cluster with the K8s autoscaler
// algorithm: desired = ceil(current × utilization/threshold), independently
// per microservice — the design that produces the cascading effect (§2.1).
type HPA struct {
	Cluster *cluster.Cluster

	threshold float64                    // target CPU utilization in (0,1]
	recs      map[string]*metrics.Window // recommendation history per service
	stop      func()
}

// NewHPA returns an HPA for every microservice of c that targets the given
// CPU utilization in (0,1] — the paper tunes it per SLO by hand, since the
// HPA cannot target latency (§5.3).
func NewHPA(c *cluster.Cluster, threshold float64) *HPA {
	c.DeclareLookback(cluster.CPU, k8sMetricWindowS)
	return &HPA{Cluster: c, threshold: threshold, recs: map[string]*metrics.Window{}}
}

// Start begins the control loop at one sync interval from now.
func (h *HPA) Start() {
	h.stop = h.Cluster.Eng.Ticker(h.Cluster.Eng.Now()+k8sSyncS, k8sSyncS, h.Step)
}

// Stop halts the control loop.
func (h *HPA) Stop() {
	if h.stop != nil {
		h.stop()
	}
}

// Step performs one synchronization across all deployments.
func (h *HPA) Step() {
	now := h.Cluster.Eng.Now()
	for _, name := range h.Cluster.App.ServiceNames() {
		d := h.Cluster.Deployment(name)
		cur := d.Replicas()
		util := d.Utilization(k8sMetricWindowS)
		ratio := util / h.threshold
		desired := cur
		if math.Abs(ratio-1) > k8sTolerance {
			desired = int(math.Ceil(float64(cur) * ratio))
		}
		// K8s scale-up policy: at most max(+percent, +pods) per period.
		if desired > cur {
			lim := max(int(math.Floor(float64(cur)*(1+k8sScaleUpPercent/100))), cur+k8sScaleUpPods)
			desired = min(desired, lim)
		}
		desired = min(max(desired, hpaMinReplicas), hpaMaxReplicas)
		// Scale-down stabilization: apply the max recommendation of the
		// trailing window, so downscaling trails by k8sStabilizationS.
		w := h.recs[name]
		if w == nil {
			w = metrics.NewWindow(name + " replicas")
			h.recs[name] = w
		}
		w.Add(now, float64(desired))
		w.Trim(now - k8sStabilizationS)
		apply := desired
		if desired < cur {
			m := w.Quantile(1, now-k8sStabilizationS, now)
			apply = min(max(int(m), desired), cur)
		}
		if apply != cur {
			d.SetReplicas(apply)
		}
	}
}

// The FIRM-like baseline's constants (§5.3): it "increases the CPU quota of
// a microservice when a ratio between median and 95%-tile latency for the
// microservice exceeds a pre-determined threshold".
const (
	// firmRatioThreshold triggers scale-up when p95/p50 self latency
	// exceeds it.
	firmRatioThreshold = 2.5

	// firmSyncS and firmMetricWindowS match the HPA's.
	firmSyncS         = k8sSyncS
	firmMetricWindowS = k8sMetricWindowS

	// firmStepQuota is how many millicores are added or removed per
	// trigger (one CPU unit in the evaluation).
	firmStepQuota = 250.0

	// firmSaturationUtil additionally triggers scale-up when mean CPU
	// utilization reaches it. Under deep open-loop saturation the
	// latency-ratio signal compresses toward 1 (every request waits a
	// backlog-dominated, similar time), which would leave a pure
	// ratio-trigger wedged; real FIRM's RL agent consumes utilization
	// signals too.
	firmSaturationUtil = 0.92

	// firmScaleDownUtil removes one unit when utilization drops below it
	// and the latency ratio is healthy, so steady-state comparisons are
	// fair.
	firmScaleDownUtil = 0.2

	// firmMaxQuota caps a service's quota in millicores.
	firmMaxQuota = 50000.0
)

// FIRMLike is the per-microservice latency-ratio autoscaler. Like the HPA
// it has no view of the chain, so it too exhibits the cascading effect.
type FIRMLike struct {
	Cluster *cluster.Cluster
	stop    func()
}

// NewFIRMLike returns a FIRM-like controller for every microservice of c.
func NewFIRMLike(c *cluster.Cluster) *FIRMLike {
	c.DeclareLookback(cluster.CPU|cluster.SelfLatency, firmMetricWindowS)
	return &FIRMLike{Cluster: c}
}

// Start begins the control loop at one sync interval from now.
func (f *FIRMLike) Start() {
	f.stop = f.Cluster.Eng.Ticker(f.Cluster.Eng.Now()+firmSyncS, firmSyncS, f.Step)
}

// Stop halts the control loop.
func (f *FIRMLike) Stop() {
	if f.stop != nil {
		f.stop()
	}
}

// Step performs one synchronization across all deployments.
func (f *FIRMLike) Step() {
	for _, name := range f.Cluster.App.ServiceNames() {
		d := f.Cluster.Deployment(name)
		med := d.SelfLatencyQuantile(0.5, firmMetricWindowS)
		p95 := d.SelfLatencyQuantile(0.95, firmMetricWindowS)
		util := d.Utilization(firmMetricWindowS)
		q := d.Quota()
		ratioHot := med > 0 && p95/med > firmRatioThreshold
		switch {
		case (ratioHot || util >= firmSaturationUtil) && q < firmMaxQuota:
			d.SetQuota(q + firmStepQuota)
		case util < firmScaleDownUtil && q > firmStepQuota:
			d.SetQuota(q - firmStepQuota)
		}
	}
}

// ProvisionProactive scales every microservice of c at once for the given
// total front-end rate: the "Proactive" configuration of Figures 2/3/7 that
// creates the heuristically determined number of instances for the whole
// chain simultaneously. Per-service quota is the CPU demand λᵢ·Workᵢ divided
// by the target utilization.
func ProvisionProactive(c *cluster.Cluster, totalRate, targetUtil float64) map[string]float64 {
	a := c.App
	rates := a.PerServiceRate(a.MixRates(totalRate))
	quotas := make(map[string]float64, len(a.Services))
	for _, svc := range a.Services {
		demand := rates[svc.Name] * svc.WorkMS // millicores of pure CPU need
		quotas[svc.Name] = demand / targetUtil
	}
	c.ApplyQuotas(quotas)
	return quotas
}

// ProvisionProactiveRates is ProvisionProactive for an explicit per-API rate
// map instead of the app's default mix.
func ProvisionProactiveRates(c *cluster.Cluster, apiRates map[string]float64, targetUtil float64) map[string]float64 {
	a := c.App
	rates := a.PerServiceRate(apiRates)
	quotas := make(map[string]float64, len(a.Services))
	for _, svc := range a.Services {
		quotas[svc.Name] = rates[svc.Name] * svc.WorkMS / targetUtil
	}
	c.ApplyQuotas(quotas)
	return quotas
}

// App re-exported helper: total CPU demand (millicores) of an application at
// a total front-end rate, the lower bound any allocator must exceed.
func cpuDemand(a *app.App, totalRate float64) float64 {
	rates := a.PerServiceRate(a.MixRates(totalRate))
	sum := 0.0
	for _, svc := range a.Services {
		sum += rates[svc.Name] * svc.WorkMS
	}
	return sum
}
