package cluster

import (
	"math"
	"slices"
	"sort"
)

// DeploymentState is the authoritative per-service scaling state captured in
// a checkpoint: the desired quota plus the instance set realizing it, split
// into ready capacity and instances still paying their Figure-1 startup
// delay (with their absolute readiness times).
type DeploymentState struct {
	Service string
	Quota   float64
	Ready   int
	// PendingReadyAt lists the absolute readiness times of created-but-not-
	// yet-ready instances, ascending.
	PendingReadyAt []float64
}

// ClusterState is the cluster's authoritative scaling state: what the
// control plane has asked for and what the substrate has materialized so
// far. Telemetry windows and in-flight requests are deliberately excluded —
// after a control-plane restart those re-fill from the live cluster within
// one rate window, whereas quota/replica state would otherwise be lost.
type ClusterState struct {
	At          float64
	Deployments []DeploymentState
}

// SnapshotInto writes the current scaling state into st, refilling the
// slices st already holds instead of allocating new ones — for a caller that
// encodes each snapshot and keeps none. Condemned and crashed instances are
// not part of desired state and are skipped.
func (c *Cluster) SnapshotInto(st *ClusterState) {
	st.At = c.Eng.Now()
	deps := st.Deployments[:0]
	for _, name := range c.names {
		d := c.deps[name]
		deps = slices.Grow(deps, 1)[:len(deps)+1]
		ds := &deps[len(deps)-1]
		*ds = DeploymentState{Service: name, Quota: d.quota, PendingReadyAt: ds.PendingReadyAt[:0]}
		for _, in := range d.instances {
			if in.condemned || in.crashed {
				continue
			}
			if in.ready {
				ds.Ready++
			} else {
				ds.PendingReadyAt = append(ds.PendingReadyAt, in.readyAt)
			}
		}
		sort.Float64s(ds.PendingReadyAt)
	}
	st.Deployments = deps
}

// ReconcileQuotas re-applies a checkpointed quota map through the normal
// scaling path — the restore used when the cluster itself survived the
// control-plane crash (the common case: only the controller process died).
// SetQuota is idempotent against matching state, so deployments already at
// their desired counts are untouched, while any drift that happened while
// the control plane was dead is corrected, paying startup latency only for
// genuinely missing capacity.
func (c *Cluster) ReconcileQuotas(quotas map[string]float64) {
	names := make([]string, 0, len(quotas))
	for n := range quotas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, ok := c.deps[n]
		if !ok {
			continue
		}
		q := quotas[n]
		if q < c.Cfg.MinQuota {
			q = c.Cfg.MinQuota
		}
		// Avoid churn when nothing changed: identical quota and a replica
		// count already satisfying Eq. 7 need no scaling call.
		if q == d.quota && d.Replicas() == int(math.Ceil(q/c.Cfg.CPUUnit)) {
			continue
		}
		d.SetQuota(q)
	}
}
