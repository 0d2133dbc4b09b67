package rpc

import (
	"fmt"
	"hash/fnv"
	"testing"

	"graf/internal/fleet"
	"graf/internal/obs"
	"graf/internal/overload"
)

// TestFleetAuditMatchesParent pins the audit bytes of fleet specs that
// existed before the spec grew: chain-4 × 6 tenants × seed 5 × rate 120 ×
// 20 rounds, under each policy the old spec could express. The constants are
// one FNV-1a/64 over every tenant's audit stream (in tenant order, each
// prefixed by its ID), RECORDED AT 42115d6 by running this file, unchanged,
// in a clone of that commit — it uses nothing newer than the Spec fields,
// FleetConfig, TenantConfig and fleet.New of that commit.
func TestFleetAuditMatchesParent(t *testing.T) {
	base := Spec{App: "chain-4", Shape: "const", Rate: 120, Seed: 5, TickS: 5, WarmStart: true}
	cases := []struct {
		name string
		mut  func(*Spec)
		want uint64
	}{
		{"const", func(*Spec) {}, 0x412e5fcebb782b6b},
		{"surge", func(s *Spec) { s.Shape = "surge" }, 0x537353615c17cae},
		{"brownout", func(s *Spec) {
			s.Brownout = []fleet.BrownoutPhase{{FromTick: 6, ToTick: 12, Step: overload.StepHeuristic}}
		}, 0xe19c28efabbd3310},
		{"slo-budget", func(s *Spec) { s.SLOBudget = &obs.SLOConfig{Budget: 0.02} }, 0x9b7a43bda592c2cf},
	}
	bundle := testBundle(t)
	ids := tenantIDs(6)
	for _, c := range cases {
		spec := base
		c.mut(&spec)
		audits := referenceAudit(t, bundle, spec, ids, 20)
		h := fnv.New64a()
		for _, id := range ids {
			fmt.Fprintf(h, "%s:%d:", id, len(audits[id]))
			h.Write(audits[id])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: audit digest %#x, parent recorded %#x", c.name, got, c.want)
		}
	}
}
