package rpc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"graf/internal/app"
	"graf/internal/gnn"
	"graf/internal/queueing"
)

// queueingSamples draws n (load, quota) → p99 samples for a from the
// analytic queueing surface: a stand-in for an offline training set.
func queueingSamples(a *app.App, n int, seed int64) []gnn.Sample {
	rng := rand.New(rand.NewSource(seed))
	sz := queueing.DefaultSizing()
	names := a.ServiceNames()
	var out []gnn.Sample
	for len(out) < n {
		rates := a.PerServiceRate(a.MixRates(50 + rng.Float64()*300))
		quotas := map[string]float64{}
		load := make([]float64, len(names))
		quota := make([]float64, len(names))
		for i, s := range names {
			quotas[s] = 100 + rng.Float64()*1400
			load[i], quota[i] = rates[s], quotas[s]
		}
		if lat := queueing.WorstAPIQuantile(a, sz, quotas, rates, 0.99); lat <= 1 {
			out = append(out, gnn.Sample{Load: load, Quota: quota, Latency: lat})
		}
	}
	return out
}

// TestLifecycleFleetAuditMatchesParent pins the audit bytes of lifecycle
// tenants: chain-4 × 2 tenants × seed 5 × rate 120 × 90 rounds, on the test
// bundle's untrained model with 200 queueing-surface base samples. Each
// tenant trips, retrains on the κ-rescaled base set, passes the gates,
// widens its bounds, rolls back in probation, cools down and retrains again.
// The constant is one FNV-1a/64 over both tenants' audit streams (each
// prefixed by its ID), recorded by running this file unchanged on the commit
// before the lifecycle's tuning values became constants.
func TestLifecycleFleetAuditMatchesParent(t *testing.T) {
	const want = uint64(0xe0ca9972276637c5)
	bundle := testBundle(t)
	bundle.Samples = queueingSamples(app.SyntheticChain(4), 200, 3)
	spec := Spec{App: "chain-4", Shape: "const", Rate: 120, Seed: 5, TickS: 5, WarmStart: true, Lifecycle: true}
	ids := tenantIDs(2)
	audits := referenceAudit(t, bundle, spec, ids, 90)
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%s:%d:", id, len(audits[id]))
		h.Write(audits[id])
		for _, ev := range []string{`"kind":"drift-trip"`, "+ 200 replayed samples",
			`"kind":"widen-bounds"`, `"kind":"promote"`, `"kind":"rollback"`} {
			if !bytes.Contains(audits[id], []byte(ev)) {
				t.Errorf("%s: audit has no %s", id, ev)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("lifecycle audit digest %#x, parent recorded %#x", got, want)
	}
}
