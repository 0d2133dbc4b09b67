package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// decisionsAfter parses an audit JSONL buffer and returns the canonical JSON
// encoding of every record strictly after time t — the byte-level trace the
// restore-invariant tests compare.
func decisionsAfter(t *testing.T, buf *bytes.Buffer, after float64) []string {
	t.Helper()
	log, err := obs.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range log {
		if r.At <= after {
			continue
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// TestSnapshotRestoreResumesByteIdentical is the restore-invariant contract:
// a controller snapshotted mid-run, torn down, rebuilt from scratch and
// Restored must produce decisions byte-identical to one that never stopped —
// same seed, same workload, same instants. The swap happens on the decision
// grid, exactly how the recovery experiment restarts a killed controller.
func TestSnapshotRestoreResumesByteIdentical(t *testing.T) {
	const swapAt = 150.0 // between the 145.001 and 150.001 decisions

	run := func(interrupt bool) *bytes.Buffer {
		a := app.OnlineBoutique()
		eng := sim.NewEngine(9)
		cl := cluster.New(eng, a, cluster.DefaultConfig())
		h := hyperbola{a: []float64{2, 2, 2, 2, 2, 2}, c: 0.01}
		b := Bounds{
			Lo: []float64{100, 100, 100, 100, 100, 100},
			Hi: []float64{6000, 6000, 6000, 6000, 6000, 6000},
		}
		cfg := DefaultControllerConfig(0.150)
		var buf bytes.Buffer
		tel := obs.New(obs.Options{AuditW: &buf})
		ctl := NewController(cl, h, NewAnalyzer(a), b, cfg)
		ctl.Obs = obs.NewControllerObs(tel)
		ctl.Start()

		if interrupt {
			eng.At(swapAt, func() {
				snap := ctl.Snapshot()
				ctl.Stop()
				ctl2 := NewController(cl, h, NewAnalyzer(a), b, cfg)
				ctl2.Obs = obs.NewControllerObs(tel)
				ctl2.Restore(snap)
				ctl2.Start() // same tick phase: next decision at swapAt+0.001
				ctl = ctl2
			})
		}

		gen := workload.NewOpenLoop(cl, workload.StepRate(20, 200, 120))
		gen.Start()
		eng.RunUntil(300)
		gen.Stop()
		ctl.Stop()
		eng.Run()
		if err := tel.Flight.Flush(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	plain := decisionsAfter(t, run(false), swapAt)
	restored := decisionsAfter(t, run(true), swapAt)
	if len(plain) == 0 {
		t.Fatal("no decisions recorded after the swap instant")
	}
	if len(plain) != len(restored) {
		t.Fatalf("record counts diverge: %d uninterrupted, %d restored", len(plain), len(restored))
	}
	for i := range plain {
		if plain[i] != restored[i] {
			t.Fatalf("decision %d diverges after restore:\nuninterrupted: %s\nrestored:      %s",
				i, plain[i], restored[i])
		}
	}
}

// TestRestoreResumesDegradedHold pins warm recovery inside a degraded-mode
// window: a controller restored mid-stale-hold must keep holding the
// last-known-good configuration — not tear it down on the lying signal a
// fresh controller would trust — and still recover once telemetry returns.
func TestRestoreResumesDegradedHold(t *testing.T) {
	cfg := DefaultControllerConfig(0.25)
	cfg.ViolationBoost = 1 // isolate the stale-telemetry path
	h := hyperbola{a: []float64{2, 2}, c: 0.01}
	eng, cl, ctl := degradedRig(t, 21, cfg, h)
	ctl.Start()
	gen := workload.NewOpenLoop(cl, workload.ConstRate(40))
	gen.Start()
	eng.RunUntil(90)
	held := cl.TotalQuota()

	// Black-hole the arrival signal, let the controller enter the hold,
	// then crash-and-restore it in the middle of the degraded window.
	cl.SuppressFrontendTelemetry(40)
	var restored *Controller
	eng.At(105, func() {
		snap := ctl.Snapshot()
		ctl.Stop()
		restored = NewController(cl, h, NewAnalyzer(cl.App), Bounds{
			Lo: []float64{100, 100}, Hi: []float64{4000, 4000},
		}, cfg)
		restored.Restore(snap)
		restored.Start()
	})
	eng.RunUntil(120)
	if restored.Health() != degradedTelemetry {
		t.Errorf("health %v after mid-hold restore, want DegradedTelemetry", restored.Health())
	}
	if got := cl.TotalQuota(); got != held {
		t.Errorf("restored controller moved quota %v → %v during the hold", held, got)
	}
	if restored.Stats().StaleHolds == 0 {
		t.Error("restored controller never held on the stale signal")
	}

	// Telemetry returns: the restored controller must exit the hold.
	eng.RunUntil(200)
	gen.Stop()
	restored.Stop()
	eng.Run()
	if restored.Health() != healthy {
		t.Errorf("health %v after telemetry recovered, want Healthy", restored.Health())
	}
}
