package cluster

import (
	"sort"
	"testing"

	"graf/internal/app"
	"graf/internal/sim"
)

// TestSnapshotCapturesScalingState pins what a checkpoint records of the
// cluster: the instant, every deployment's quota, its ready capacity, and the
// absolute readiness times of the startups still in flight.
func TestSnapshotCapturesScalingState(t *testing.T) {
	a := app.RobotShop()
	eng := sim.NewEngine(5)
	cl := New(eng, a, DefaultConfig())
	cl.Deployment("web").SetQuota(1000)
	cl.Deployment("catalogue").SetQuota(500)
	eng.RunUntil(40) // instances ready
	// Scale up just before the snapshot so startups are still in progress.
	cl.Deployment("web").SetQuota(2000)
	var st ClusterState
	cl.SnapshotInto(&st)
	if st.At != 40 {
		t.Fatalf("snapshot at %.1f, want 40", st.At)
	}
	if cl.PendingInstances() == 0 {
		t.Fatal("test needs in-progress startups at snapshot time")
	}
	if len(st.Deployments) != len(a.ServiceNames()) {
		t.Fatalf("%d deployments captured, want %d", len(st.Deployments), len(a.ServiceNames()))
	}
	pending := 0
	for _, ds := range st.Deployments {
		d := cl.Deployment(ds.Service)
		if ds.Quota != d.Quota() {
			t.Errorf("%s quota %v, want %v", ds.Service, ds.Quota, d.Quota())
		}
		if ds.Ready != d.ReadyReplicas() {
			t.Errorf("%s ready %d, want %d", ds.Service, ds.Ready, d.ReadyReplicas())
		}
		if !sort.Float64sAreSorted(ds.PendingReadyAt) {
			t.Errorf("%s readiness times not ascending: %v", ds.Service, ds.PendingReadyAt)
		}
		for _, at := range ds.PendingReadyAt {
			if at <= st.At {
				t.Errorf("%s pending instance ready at %.1f, not after the snapshot at %.1f", ds.Service, at, st.At)
			}
		}
		pending += len(ds.PendingReadyAt)
	}
	if pending != cl.PendingInstances() {
		t.Errorf("%d pending readiness times captured, want %d", pending, cl.PendingInstances())
	}
}

// TestReconcileQuotasIdempotent checks the surviving-cluster path: matching
// state is untouched (no churn, no startup latency paid), drift is corrected
// through the normal scaling path.
func TestReconcileQuotasIdempotent(t *testing.T) {
	eng := sim.NewEngine(5)
	cl := New(eng, app.RobotShop(), DefaultConfig())
	want := map[string]float64{"web": 1200, "catalogue": 600}
	for n, q := range want {
		cl.Deployment(n).SetQuota(q)
	}
	eng.RunUntil(60)
	created := cl.CreatedTotal()

	cl.ReconcileQuotas(want)
	if got := cl.CreatedTotal(); got != created {
		t.Errorf("no-op reconcile created %d instances", got-created)
	}
	for n, q := range want {
		if got := cl.Deployment(n).Quota(); got != q {
			t.Errorf("%s quota %v, want %v", n, got, q)
		}
	}

	// Drift while the control plane was dead: someone moved a quota. The
	// reconcile must put it back — and tolerate unknown services.
	cl.Deployment("web").SetQuota(300)
	eng.RunUntil(90)
	cl.ReconcileQuotas(map[string]float64{"web": 1200, "ghost-service": 800})
	if got := cl.Deployment("web").Quota(); got != 1200 {
		t.Errorf("drifted quota reconciled to %v, want 1200", got)
	}
	eng.RunUntil(150)
	if cl.Deployment("web").ReadyReplicas() != cl.Deployment("web").Replicas() {
		t.Errorf("reconciled capacity never materialized: %d/%d ready",
			cl.Deployment("web").ReadyReplicas(), cl.Deployment("web").Replicas())
	}
}
