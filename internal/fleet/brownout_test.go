package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graf/internal/core"
	"graf/internal/obs"
	"graf/internal/overload"
	"graf/internal/workload"
)

// ladderTransitions extracts the overload.Transition sequence a tenant's
// audit records describe, for the monotonicity invariant.
func ladderTransitions(t *testing.T, log []byte) []overload.Transition {
	t.Helper()
	recs, err := obs.ReadLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var out []overload.Transition
	for _, r := range recs {
		if r.Type != "brownout" {
			continue
		}
		out = append(out, overload.Transition{
			From: overload.Step(r.Summary["from_step"]),
			To:   overload.Step(r.Summary["to_step"]),
		})
	}
	return out
}

// TestFleetScriptedBrownoutDeterministic drives a fleet through a scripted
// brownout window — down to hold and back — and checks the whole ladder
// contract: per-tenant audit streams stay byte-identical across schedules,
// the transition records form a monotone ladder walk, and every rung's
// decision kind shows up in the stream.
func TestFleetScriptedBrownoutDeterministic(t *testing.T) {
	sched := []BrownoutPhase{{FromTick: 4, ToTick: 9, Step: overload.StepHold}}
	run := func(workers int) map[string][]byte {
		cfg := testConfig(5, workers)
		cfg.Brownout = sched
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate = workload.StepRate(100, 160, 20)
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Run(80) // 16 ticks of 5s
		out := map[string][]byte{}
		for _, tn := range f.Tenants() {
			out[tn.ID] = append([]byte(nil), tn.AuditLog()...)
			if tn.Brownout() != overload.StepFull {
				t.Errorf("tenant %s ended on rung %v, want full", tn.ID, tn.Brownout())
			}
			if tn.bTrans == 0 {
				t.Errorf("tenant %s made no ladder transitions", tn.ID)
			}
		}
		return out
	}

	want := run(1)
	for _, workers := range []int{4, 3} {
		got := run(workers)
		for id, log := range want {
			if !bytes.Equal(got[id], log) {
				t.Errorf("workers=%d: tenant %s audit log differs across brownout (%d vs %d bytes)",
					workers, id, len(got[id]), len(log))
			}
		}
	}

	for id, log := range want {
		trans := ladderTransitions(t, log)
		if err := overload.MonotoneTransitions(trans); err != nil {
			t.Errorf("tenant %s: %v", id, err)
		}
		// Walking to hold and back means 3 rungs down + 3 rungs up.
		if len(trans) != 6 {
			t.Errorf("tenant %s: %d transitions, want 6 (%v)", id, len(trans), trans)
		}
		recs, err := obs.ReadLog(bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, r := range recs {
			if r.Type == "decision" {
				kinds[r.Kind]++
			}
		}
		for _, k := range []string{"brownout-heuristic", "brownout-hold"} {
			if kinds[k] == 0 {
				t.Errorf("tenant %s: no %q decisions during scripted brownout (kinds: %v)", id, k, kinds)
			}
		}
	}
}

// TestFleetAdaptiveBrownoutReplaysFromAudit is the determinism escape hatch
// for adaptive brownouts: transitions chosen at run time (wall pressure, a
// governor — anything) land in the audit stream, so a second process can
// extract the tick-keyed schedule from the recorded bytes, install it as a
// replay schedule, re-execute the same spec and reproduce the stream
// byte-for-byte. This is exactly what Restore does for a migrated tenant that
// browned out on its old shard — also when its old owner died mid-append and
// left a torn last line, which Restore cuts off in the one read of the log
// that also yields the schedule.
func TestFleetAdaptiveBrownoutReplaysFromAudit(t *testing.T) {
	cfg := testConfig(3, 2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		// An "adaptive" driver: pressure appears at round 3 and clears at 7.
		switch r {
		case 3:
			f.SetBrownoutTarget(overload.StepHeuristic)
		case 7:
			f.SetBrownoutTarget(overload.StepFull)
		}
		f.Round()
	}
	f.Stop()

	// A second, dynamic fleet with no adaptive driver finds the recorded
	// bytes in its audit directory and restores each tenant from them.
	dir := t.TempDir()
	ref := map[string][]byte{}
	for i, tn := range f.Tenants() {
		ref[tn.ID] = append([]byte(nil), tn.AuditLog()...)
		recs, err := obs.ReadLog(bytes.NewReader(ref[tn.ID]))
		if s := brownoutSchedule(recs); err != nil || s == nil {
			t.Fatalf("tenant %s: no brownout schedule extracted (err %v)", tn.ID, err)
		}
		onDisk := ref[tn.ID]
		if i%2 == 0 { // the old owner died appending a decision
			onDisk = append(append([]byte(nil), onDisk...), `{"type":"decision","at":6`...)
		}
		if err := os.WriteFile(filepath.Join(dir, SanitizeID(tn.ID)+".jsonl"), onDisk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gcfg := testConfig(3, 1)
	tenants := gcfg.Tenants
	gcfg.Tenants, gcfg.Dynamic, gcfg.AuditDir = nil, true, dir
	g, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Stop()
	for _, tc := range tenants {
		tn, rep, err := g.Restore(tc, 12, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.PriorVerified || rep.PriorBytes != len(ref[tc.ID]) {
			t.Errorf("tenant %s: restore report %+v, want %d prior bytes verified", tc.ID, rep, len(ref[tc.ID]))
		}
		if !bytes.Equal(tn.AuditLog(), ref[tc.ID]) {
			t.Errorf("tenant %s: replayed audit differs from adaptive original (%d vs %d bytes)",
				tc.ID, len(tn.AuditLog()), len(ref[tc.ID]))
		}
	}
}

// TestFleetPerTenantSLOAndBounds: a tenant's own SLO is what its controller
// and its header record carry, and bounds that do not fit the fleet's
// application are rejected when the fleet is built, not at solve time deep
// inside a worker.
func TestFleetPerTenantSLOAndBounds(t *testing.T) {
	slos := []float64{0.2, 0.3, 0.25}
	cfg := testConfig(len(slos), 2)
	for i, slo := range slos {
		cfg.Tenants[i].SLO = slo
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, slo := range slos {
		tn := f.Tenant(fmt.Sprintf("tenant-%02d", i))
		if tn.slo != slo || tn.Ctl.Cfg.SLO != slo {
			t.Errorf("tenant %s: SLO %g, controller SLO %g, want %g", tn.ID, tn.slo, tn.Ctl.Cfg.SLO, slo)
		}
		tn.tel.Flight.Flush()
		recs := tn.tel.Flight.Records()
		if len(recs) == 0 || recs[0].Type != "header" || recs[0].SLO != slo {
			t.Errorf("tenant %s: header record does not carry the per-tenant SLO", tn.ID)
		}
	}
	bad := testConfig(1, 1)
	bad.Bounds = core.Bounds{Lo: []float64{1}, Hi: []float64{2}}
	if _, err := New(bad); err == nil {
		t.Error("mis-sized fleet bounds accepted")
	}
	bad.Tenants, bad.Dynamic = nil, true
	if _, err := New(bad); err == nil {
		t.Error("mis-sized fleet bounds accepted by a dynamic fleet")
	}
}

// A schedule handed to the fleet directly (rpc.Spec.Validate rejects these on
// the wire) must not walk a tenant off the ladder: stepBrownout moves one rung
// per tick toward the desired step and would never stop at hold.
func TestScriptedStepStaysOnTheLadder(t *testing.T) {
	for step, want := range map[overload.Step]overload.Step{9: overload.StepHold, -3: overload.StepFull} {
		if got := scriptedStep([]BrownoutPhase{{Step: step}}, 0); got != want {
			t.Errorf("scripted step %d resolves to %v, want %v", step, got, want)
		}
	}
}

// TestRestoreRefusesAnotherSolverVersionsLog: a tenant whose audit log was
// written under a different solver version cannot be restored by
// re-execution. Restore must say so — naming both versions and the replay
// tool that can still verify the log — before it admits the tenant, because
// admitting truncates the file.
func TestRestoreRefusesAnotherSolverVersionsLog(t *testing.T) {
	v1 := core.DefaultControllerConfig(0.25)
	v1.Solver.Version = 1
	for _, tc := range []struct {
		name          string
		wrote, reads  *core.ControllerConfig
		wroteV, readV string
	}{
		{"v1 log, v2 fleet", &v1, nil, "version 1", "version 2"},
		{"v2 log, v1 fleet", nil, &v1, "version 2", "version 1"},
	} {
		dir := t.TempDir()
		cfg := testConfig(1, 1)
		cfg.AuditDir, cfg.Controller = dir, tc.wrote
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 6; r++ {
			f.Round()
		}
		f.Stop()
		path := filepath.Join(dir, SanitizeID(cfg.Tenants[0].ID)+".jsonl")
		prior, err := os.ReadFile(path)
		if err != nil || len(prior) == 0 {
			t.Fatalf("%s: no prior log: %v", tc.name, err)
		}

		gcfg := testConfig(1, 1)
		tenant := gcfg.Tenants[0]
		gcfg.Tenants, gcfg.Dynamic, gcfg.AuditDir, gcfg.Controller = nil, true, dir, tc.reads
		g, err := New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		_, _, err = g.Restore(tenant, 6, "", 0)
		g.Stop()
		if err == nil {
			t.Fatalf("%s: restore succeeded", tc.name)
		}
		for _, want := range []string{"recorded under solver " + tc.wroteV, "runs " + tc.readV, "grafd -replay"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not say %q: %v", tc.name, want, err)
			}
		}
		if g.Tenant(tenant.ID) != nil {
			t.Errorf("%s: refused tenant was admitted", tc.name)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, prior) {
			t.Errorf("%s: the refused log changed on disk (%d → %d bytes)", tc.name, len(prior), len(after))
		}
	}
}
