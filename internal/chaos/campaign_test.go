package chaos_test

// Campaign tests live in an external test package, which may import fleet:
// the campaign harness (campaign_gen_test.go, in package chaos) is plain
// data below fleet in the import graph, and these tests are the driver
// mapping campaigns onto real fleets.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graf/internal/app"
	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/gnn"
	"graf/internal/overload"
	"graf/internal/workload"
)

// campaignConfig mirrors the fleet package's own test rig: a synthetic chain
// app with a fresh deterministic model, sized by the campaign's tenant count.
func campaignConfig(tenants, workers int) fleet.Config {
	a := app.SyntheticChain(4)
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(42)))
	n := len(a.Services)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 100, 1500
	}
	cfg := fleet.Config{
		App: a, Model: m,
		Bounds:  core.Bounds{Lo: lo, Hi: hi},
		SLO:     0.25,
		MinRate: 50, MaxRate: 400,
		Workers: workers, TickS: 5, Seed: 1,
	}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, fleet.TenantConfig{
			ID:   fmt.Sprintf("tenant-%02d", i),
			Rate: workload.ConstRate(100 + 10*float64(i%3)),
		})
	}
	return cfg
}

// runCampaign plays a campaign against a real fleet on the given schedule
// and returns the invariant report plus per-tenant audit bytes.
func runCampaign(t *testing.T, c chaos.Campaign, workers, seconds int) chaos.Report {
	t.Helper()
	cfg := campaignConfig(c.Tenants, workers)
	for i := range cfg.Tenants {
		cfg.Tenants[i].Chaos = c.Scenarios[i]
	}
	for _, w := range c.Brownout {
		cfg.Brownout = append(cfg.Brownout, fleet.BrownoutPhase{
			FromTick: w.FromTick, ToTick: w.ToTick, Step: w.Step,
		})
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatalf("campaign %s: %v", c.Name, err)
	}
	f.Run(float64(seconds))

	rep := chaos.Report{Audits: map[string][]byte{}}
	for _, tn := range f.Tenants() {
		if tn.Degraded() {
			// A campaign must stress the fleet, not crash it: any quarantined
			// tenant is a lost decision stream.
			rep.LostDecisions++
		}
		rep.Audits[tn.ID] = tn.AuditLog()
	}
	return rep
}

// TestCampaignGeneratorsAreDeterministic pins the campaign contract: the
// generators are pure functions of (seed, tenants), so the same inputs must
// yield identical scripts — the property that makes a campaign replayable on
// any schedule or process layout.
func TestCampaignGeneratorsAreDeterministic(t *testing.T) {
	a := chaos.Campaigns(7, 6)
	b := chaos.Campaigns(7, 6)
	if len(a) != 4 {
		t.Fatalf("want the 4 built-in campaigns, got %d", len(a))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("campaign %s differs across generations with the same seed", a[i].Name)
		}
	}
	c := chaos.Campaigns(8, 6)
	same := 0
	for i := range a {
		if reflect.DeepEqual(a[i].Scenarios, c[i].Scenarios) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical campaigns")
	}
}

// TestCampaignInvariants runs every built-in campaign against a real fleet
// and holds it to the fleet-level verdict: no lost decision streams, no
// expired work executed, and every brownout ladder walk monotone. The
// overload-burst campaign must additionally show the ladder actually walked
// (its scripted window guarantees transitions in every audit stream).
func TestCampaignInvariants(t *testing.T) {
	for _, c := range chaos.Campaigns(21, 6) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rep := runCampaign(t, c, 3, 120)
			if err := chaos.CheckInvariants(rep); err != nil {
				t.Fatal(err)
			}
			if len(rep.Audits) != c.Tenants {
				t.Fatalf("report covers %d/%d tenants", len(rep.Audits), c.Tenants)
			}
			if len(c.Brownout) == 0 {
				return
			}
			for id, log := range rep.Audits {
				trans, err := chaos.BrownoutTransitions(log)
				if err != nil {
					t.Fatal(err)
				}
				if len(trans) == 0 {
					t.Errorf("tenant %s: scripted brownout window left no ladder walk", id)
				}
			}
		})
	}
}

// TestCampaignByteIdenticalAcrossSchedules is the correlated-chaos
// determinism drill: the same campaign replayed on a serial (1 worker) and
// a wide (4 workers) schedule must produce
// byte-identical per-tenant audit logs — correlated faults, contention,
// aliased telemetry and brownout transitions included.
func TestCampaignByteIdenticalAcrossSchedules(t *testing.T) {
	for _, c := range chaos.Campaigns(33, 6) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			serial := runCampaign(t, c, 1, 120)
			wide := runCampaign(t, c, 4, 120)
			if err := chaos.CheckInvariants(serial); err != nil {
				t.Fatal(err)
			}
			if err := chaos.CheckInvariants(wide); err != nil {
				t.Fatal(err)
			}
			for id, want := range serial.Audits {
				got, ok := wide.Audits[id]
				if !ok {
					t.Fatalf("tenant %s missing from wide run", id)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("tenant %s: audit log differs across schedules (%d vs %d bytes)",
						id, len(got), len(want))
				}
			}
		})
	}
}

// TestCheckInvariantsRejectsViolations proves the checker actually bites:
// a lost decision, an executed-expired count, and a non-monotone ladder walk
// must each fail.
func TestCheckInvariantsRejectsViolations(t *testing.T) {
	if err := chaos.CheckInvariants(chaos.Report{LostDecisions: 1}); err == nil {
		t.Error("lost decisions passed")
	}
	if err := chaos.CheckInvariants(chaos.Report{ExpiredExecuted: 3}); err == nil {
		t.Error("expired executions passed")
	}
	bad := []byte(`{"type":"brownout","summary":{"tick":4,"from_step":0,"to_step":2}}` + "\n")
	if err := chaos.CheckInvariants(chaos.Report{Audits: map[string][]byte{"t": bad}}); err == nil {
		t.Error("rung-skipping ladder walk passed")
	}
	_ = overload.StepFull // campaign tests share the ladder vocabulary
}
