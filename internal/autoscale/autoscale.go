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

// HPAConfig mirrors the knobs of the Kubernetes Horizontal Pod Autoscaler.
type HPAConfig struct {
	// Threshold is the target CPU utilization in (0,1] — the paper tunes
	// this per-SLO by hand since the HPA cannot target latency (§5.3).
	Threshold float64

	// SyncIntervalS is how often scaling decisions are made (paper: 15 s).
	SyncIntervalS float64

	// MetricWindowS is the trailing window utilization is averaged over.
	MetricWindowS float64

	// Tolerance suppresses scaling when |ratio−1| is inside it (K8s
	// default 0.1).
	Tolerance float64

	// StabilizationS is the scale-down stabilization window: the HPA
	// applies the highest recommendation of the past window (K8s default
	// 300 s — the cause of the slow scale-down in Fig 20).
	StabilizationS float64

	// ScaleUpMaxPercent and ScaleUpMaxPods bound one sync period's
	// scale-up to max(current×(1+percent/100), current+pods), the K8s
	// default scale-up policy. This is what makes the HPA ramp
	// incrementally during a surge (Fig 21) instead of jumping.
	ScaleUpMaxPercent float64
	ScaleUpMaxPods    int

	MinReplicas int
	MaxReplicas int
}

// DefaultHPAConfig returns the Kubernetes defaults with the given
// utilization threshold.
func DefaultHPAConfig(threshold float64) HPAConfig {
	return HPAConfig{
		Threshold:         threshold,
		SyncIntervalS:     15,
		MetricWindowS:     30,
		Tolerance:         0.1,
		StabilizationS:    300,
		ScaleUpMaxPercent: 100,
		ScaleUpMaxPods:    4,
		MinReplicas:       1,
		MaxReplicas:       200,
	}
}

// HPA drives every deployment of a cluster with the K8s autoscaler
// algorithm: desired = ceil(current × utilization/threshold), independently
// per microservice — the design that produces the cascading effect (§2.1).
type HPA struct {
	Cluster *cluster.Cluster
	Cfg     HPAConfig

	recs map[string]*metrics.Window // recommendation history per service
	stop func()
}

// NewHPA returns an HPA for every microservice of c.
func NewHPA(c *cluster.Cluster, cfg HPAConfig) *HPA {
	c.DeclareLookback(cluster.CPU, cfg.MetricWindowS)
	return &HPA{Cluster: c, Cfg: cfg, recs: map[string]*metrics.Window{}}
}

// Start begins the control loop at one sync interval from now.
func (h *HPA) Start() {
	h.stop = h.Cluster.Eng.Ticker(h.Cluster.Eng.Now()+h.Cfg.SyncIntervalS, h.Cfg.SyncIntervalS, h.Step)
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
		util := d.Utilization(h.Cfg.MetricWindowS)
		ratio := util / h.Cfg.Threshold
		desired := cur
		if math.Abs(ratio-1) > h.Cfg.Tolerance {
			desired = int(math.Ceil(float64(cur) * ratio))
		}
		// K8s scale-up policy: at most max(+percent, +pods) per period.
		if desired > cur {
			byPct := int(math.Floor(float64(cur) * (1 + h.Cfg.ScaleUpMaxPercent/100)))
			byPods := cur + h.Cfg.ScaleUpMaxPods
			lim := byPct
			if byPods > lim {
				lim = byPods
			}
			if desired > lim {
				desired = lim
			}
		}
		if desired < h.Cfg.MinReplicas {
			desired = h.Cfg.MinReplicas
		}
		if desired > h.Cfg.MaxReplicas {
			desired = h.Cfg.MaxReplicas
		}
		// Scale-down stabilization: apply the max recommendation of the
		// trailing window, so downscaling trails by StabilizationS.
		w := h.recs[name]
		if w == nil {
			w = metrics.NewWindow(name + " replicas")
			h.recs[name] = w
		}
		w.Add(now, float64(desired))
		w.Trim(now - h.Cfg.StabilizationS)
		apply := desired
		if desired < cur {
			m := w.Quantile(1, now-h.Cfg.StabilizationS, now)
			apply = int(m)
			if apply < desired {
				apply = desired
			}
			if apply > cur {
				apply = cur
			}
		}
		if apply != cur {
			d.SetReplicas(apply)
		}
	}
}

// FIRMConfig parameterizes the FIRM-like baseline (§5.3): "increases the
// CPU quota of a microservice when a ratio between median and 95%-tile
// latency for the microservice exceeds a pre-determined threshold".
type FIRMConfig struct {
	// RatioThreshold triggers scale-up when p95/p50 self latency exceeds it.
	RatioThreshold float64

	SyncIntervalS float64
	MetricWindowS float64

	// StepQuota is how many millicores are added per trigger (one CPU
	// unit in the evaluation).
	StepQuota float64

	// SaturationUtil additionally triggers scale-up when mean CPU
	// utilization reaches it. Under deep open-loop saturation the
	// latency-ratio signal compresses toward 1 (every request waits a
	// backlog-dominated, similar time), which would leave a pure
	// ratio-trigger wedged; real FIRM's RL agent consumes utilization
	// signals too.
	SaturationUtil float64

	// ScaleDownUtil removes one unit when utilization drops below it and
	// the latency ratio is healthy, so steady-state comparisons are fair.
	ScaleDownUtil float64

	MaxQuota float64
}

// DefaultFIRMConfig returns the settings used in the evaluation.
func DefaultFIRMConfig() FIRMConfig {
	return FIRMConfig{
		RatioThreshold: 2.5,
		SyncIntervalS:  15,
		MetricWindowS:  30,
		StepQuota:      250,
		SaturationUtil: 0.92,
		ScaleDownUtil:  0.2,
		MaxQuota:       50000,
	}
}

// FIRMLike is the per-microservice latency-ratio autoscaler. Like the HPA
// it has no view of the chain, so it too exhibits the cascading effect.
type FIRMLike struct {
	Cluster *cluster.Cluster
	Cfg     FIRMConfig
	stop    func()
}

// NewFIRMLike returns a FIRM-like controller for every microservice of c.
func NewFIRMLike(c *cluster.Cluster, cfg FIRMConfig) *FIRMLike {
	c.DeclareLookback(cluster.CPU|cluster.SelfLatency, cfg.MetricWindowS)
	return &FIRMLike{Cluster: c, Cfg: cfg}
}

// Start begins the control loop at one sync interval from now.
func (f *FIRMLike) Start() {
	f.stop = f.Cluster.Eng.Ticker(f.Cluster.Eng.Now()+f.Cfg.SyncIntervalS, f.Cfg.SyncIntervalS, f.Step)
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
		med := d.SelfLatencyQuantile(0.5, f.Cfg.MetricWindowS)
		p95 := d.SelfLatencyQuantile(0.95, f.Cfg.MetricWindowS)
		util := d.Utilization(f.Cfg.MetricWindowS)
		q := d.Quota()
		ratioHot := med > 0 && p95/med > f.Cfg.RatioThreshold
		saturated := f.Cfg.SaturationUtil > 0 && util >= f.Cfg.SaturationUtil
		switch {
		case (ratioHot || saturated) && q < f.Cfg.MaxQuota:
			d.SetQuota(q + f.Cfg.StepQuota)
		case util < f.Cfg.ScaleDownUtil && q > f.Cfg.StepQuota:
			d.SetQuota(q - f.Cfg.StepQuota)
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
func CPUDemand(a *app.App, totalRate float64) float64 {
	rates := a.PerServiceRate(a.MixRates(totalRate))
	sum := 0.0
	for _, svc := range a.Services {
		sum += rates[svc.Name] * svc.WorkMS
	}
	return sum
}
