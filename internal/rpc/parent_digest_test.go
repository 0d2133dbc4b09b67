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
// prefixed by its ID). The file uses nothing newer than the Spec fields,
// FleetConfig, TenantConfig and fleet.New of 42115d6, where the constants
// were first recorded by running it, unchanged, in a clone of that commit;
// they held until solver version 2 changed every solve (and the header, which
// now names the version), and were RE-RECORDED WITH IT. No Spec field reaches
// version 1, so the old constants cannot be kept alongside: the controller
// kernel's version 1 pin is core.TestDecisionDigestsMatchParent, and the
// plane's byte identity to the single-process reference is pinned by the
// drill tests whatever the solver.
func TestFleetAuditMatchesParent(t *testing.T) {
	base := Spec{App: "chain-4", Shape: "const", Rate: 120, Seed: 5, TickS: 5, WarmStart: true}
	cases := []struct {
		name string
		mut  func(*Spec)
		want uint64
	}{
		{"const", func(*Spec) {}, 0x9a8e99fa7b8e6f6c},
		{"surge", func(s *Spec) { s.Shape = "surge" }, 0xc96450d044fb1575},
		{"brownout", func(s *Spec) {
			s.Brownout = []fleet.BrownoutPhase{{FromTick: 6, ToTick: 12, Step: overload.StepHeuristic}}
		}, 0xce0caccd18c70c5e},
		{"slo-budget", func(s *Spec) { s.SLOBudget = &obs.SLOConfig{Budget: 0.02} }, 0x12d7b2ebbed88f5b},
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
