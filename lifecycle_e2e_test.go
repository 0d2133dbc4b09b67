package graf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"graf/internal/gnn"
)

// lcTrained trains one boutique model at the drift-experiment budget, shared
// by the lifecycle end-to-end tests (the 600-sample quickTrained model is too
// weak to hold trust on the pre-drift surface).
var lcTrainedModel *TrainedModel

func lcTrained(t *testing.T) *TrainedModel {
	t.Helper()
	if testing.Short() {
		t.Skip("lifecycle e2e needs a trained pipeline")
	}
	if lcTrainedModel == nil {
		lcTrainedModel = Train(OnlineBoutique(), TrainOptions{
			SLO: 250 * time.Millisecond, MinRate: 40, MaxRate: 420,
			Samples: 1100, Iterations: 360, Batch: 64, Seed: 1,
		})
	}
	return lcTrainedModel
}

// lcLoad ramps to 240 rps over the first minute, then swells ±60 rps with a
// two-minute period — a varying workload keeps the controller consulting the
// model, which is where a drifted model hurts.
func lcLoad(t float64) float64 {
	if t < 60 {
		return 240 * t / 60
	}
	return 240 + 60*math.Sin(2*math.Pi*(t-60)/120)
}

// driftUntil steps the simulation until the lifecycle reaches phase, or fails
// with the event log.
func driftUntil(t *testing.T, s *Simulation, lc *Lifecycle, phase LifecyclePhase, maxS int, events *[]string) {
	t.Helper()
	for i := 0; i < maxS/10; i++ {
		if lc.Phase() == phase {
			return
		}
		s.RunFor(10 * time.Second)
	}
	if lc.Phase() != phase {
		t.Fatalf("lifecycle never reached %v (still %v after %ds)\nevents: %v",
			phase, lc.Phase(), maxS, *events)
	}
}

// TestLifecycleReplayAcrossPromotion drives the public API through a full
// drift→trip→retrain→promote arc with the flight recorder on, then replays
// the audit log: every decision — some solved by generation 0, some by the
// promoted generation 1 — must reproduce bit-identically through the model
// archive the lifecycle carries.
func TestLifecycleReplayAcrossPromotion(t *testing.T) {
	tr := lcTrained(t)
	s := NewSimulation(OnlineBoutique(), 11)
	tel := s.EnableObservability()

	ctl, err := s.StartGRAF(tr, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	g := s.OpenLoop(lcLoad)
	g.Start()
	s.RunFor(180 * time.Second) // ramp + settle before arming the monitor

	var events []string
	lc := s.NewLifecycle(tr, LifecycleOptions{OnEvent: func(at time.Duration, kind, detail string) {
		events = append(events, fmt.Sprintf("t=%.0f %s: %s", at.Seconds(), kind, detail))
	}})
	lc.Attach(ctl)
	lc.Start()
	s.RunFor(60 * time.Second) // monitor warms up on the surface it trusts

	s.Chaos().Play([]ChaosEvent{
		ChaosSurfaceDrift(0, "", 1.6),
	})
	driftUntil(t, s, lc, LifecycleDrifted, 200, &events)
	driftUntil(t, s, lc, LifecycleProbation, 400, &events)
	s.RunFor(60 * time.Second) // some decisions on the promoted generation
	g.Stop()
	ctl.Stop()
	lc.Stop()

	trips, promos, _, _, _, _ := lc.Stats()
	if trips < 1 || promos < 1 {
		t.Fatalf("want ≥1 trip and ≥1 promotion, got %d/%d\nevents: %v", trips, promos, events)
	}
	if lc.Generation() < 1 {
		t.Fatalf("incumbent still generation %d after a promotion", lc.Generation())
	}

	recs := tel.Flight.Records()
	sawPromoted := false
	for _, r := range recs {
		if r.Type == "decision" && r.ModelGen >= 1 {
			sawPromoted = true
			break
		}
	}
	if !sawPromoted {
		t.Error("no decision record carries the promoted model generation")
	}

	rep := ReplayAuditManaged(lc.Models(), recs)
	if !rep.OK() {
		t.Fatalf("replay across promotion not bit-identical: %v\n%v", rep, rep.Mismatches)
	}
	if rep.Solves == 0 {
		t.Fatal("replay re-solved nothing")
	}
	if rep.SkippedGen != 0 {
		t.Errorf("%d solves skipped: lifecycle archive is missing generations", rep.SkippedGen)
	}
}

// TestLifecycleSupervisedWarmRecoveryMidCanary kills a lifecycle tenant's
// control plane in the middle of a canary probation window and restarts it
// through Fleet.Restore, the one restore path: the checkpoint digest and the
// dead process's audit log must both verify, the restored manager must stand
// where the dead one stood — same promoted generation, still on probation —
// and the resumed window must run to full trust without a spurious rollback,
// ending in the bytes an uninterrupted run writes.
func TestLifecycleSupervisedWarmRecoveryMidCanary(t *testing.T) {
	a, err := AppByName("chain-4")
	if err != nil {
		t.Fatal(err)
	}
	n := len(a.Services)
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 100, 1500
	}
	// An untrained model drifts at once: the tenant trips at tick 11,
	// retrains at 25, is promoted at 35 and earns full trust at 59, so the
	// checkpoint at 48 and the death at 50 both fall inside the 24-tick
	// probation window.
	tm := &TrainedModel{
		Model:  gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(42))),
		Bounds: Bounds{Lo: lo, Hi: hi},
		SLO:    250 * time.Millisecond, MinRate: 50, MaxRate: 400,
	}
	const ckptAt, crashAt, rounds = 48, 50, 64
	tenant := FleetTenant{ID: "tenant-00", Rate: ConstRate(60), SLO: 0.3}
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	newFleet := func(audit string) *Fleet {
		t.Helper()
		f, err := NewFleet(a, tm, FleetConfig{
			Dynamic: true, TickS: 5, Seed: 1, Lifecycle: &LifecycleConfig{}, AuditDir: filepath.Join(dir, audit),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The first process checkpoints mid-probation, decides two more ticks
	// and dies: its checkpoint and audit log are all that survive it.
	f := newFleet("audit")
	ten, err := f.Admit(tenant)
	if err != nil {
		t.Fatal(err)
	}
	f.RoundTo(ckptAt)
	if _, err := f.Checkpoint(ckptDir); err != nil {
		t.Fatal(err)
	}
	f.RoundTo(crashAt)
	f.Stop()
	lc := ten.Lifecycle()
	gen, phase := lc.Generation(), lc.Phase()
	trips0, promos0, rolls0, _, _, _ := lc.Stats()
	if phase != LifecycleProbation || gen < 1 || promos0 < 1 {
		t.Fatalf("at the crash: phase %v, generation %d, %d promotions; want probation on a promoted generation", phase, gen, promos0)
	}

	// The restarted process restores at the checkpoint and replays past it
	// to cover what the dead one recorded.
	f2 := newFleet("audit")
	ten2, rep, err := f2.Restore(tenant, ckptAt, ckptDir, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotVerified || !rep.PriorVerified || rep.ReplayedTicks != crashAt-ckptAt {
		t.Fatalf("restore report %+v: want the snapshot and the prior log verified, %d ticks replayed", rep, crashAt-ckptAt)
	}
	lc2 := ten2.Lifecycle()
	if got := lc2.Generation(); got != gen {
		t.Errorf("generation %d after the restore, want %d", got, gen)
	}
	if p := lc2.Phase(); p != LifecycleProbation {
		t.Errorf("phase %v after the restore, want the probation resumed", p)
	}
	if trips, promos, rolls, _, _, _ := lc2.Stats(); trips != trips0 || promos != promos0 || rolls != rolls0 {
		t.Errorf("restored counters trips/promotions/rollbacks %d/%d/%d, the dead process had %d/%d/%d",
			trips, promos, rolls, trips0, promos0, rolls0)
	}

	// The resumed probation window must run to completion, not roll back.
	f2.RoundTo(rounds)
	f2.Stop()
	if _, _, rolls, _, _, _ := lc2.Stats(); rolls != rolls0 {
		t.Errorf("probation rolled back after the restore (rollbacks %d → %d)", rolls0, rolls)
	}
	if p := lc2.Phase(); p != LifecycleTrusted {
		t.Errorf("phase %v at round %d, want the candidate trusted", p, rounds)
	}
	if got := lc2.Generation(); got != gen {
		t.Errorf("final generation %d, want the promoted %d", got, gen)
	}

	ref := newFleet("ref")
	refTen, err := ref.Admit(tenant)
	if err != nil {
		t.Fatal(err)
	}
	ref.RoundTo(rounds)
	ref.Stop()
	if got, want := ten2.AuditLog(), refTen.AuditLog(); !bytes.Equal(got, want) {
		t.Errorf("restored run's audit (%d bytes) differs from the uninterrupted run's (%d bytes)", len(got), len(want))
	}
}

// TestNewFleetLifecycleReplaysModelSamples: a NewFleet lifecycle tenant
// retrains on the trained model's own Samples, as NewLifecycle and the grafd
// path do, when the fleet's LifecycleConfig names no base set — and the
// caller's config is left as it was.
func TestNewFleetLifecycleReplaysModelSamples(t *testing.T) {
	a, err := AppByName("chain-4")
	if err != nil {
		t.Fatal(err)
	}
	n := len(a.Services)
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 100, 1500
	}
	rng := rand.New(rand.NewSource(3))
	samples := make([]Sample, 150)
	for i := range samples {
		load, quota := make([]float64, n), make([]float64, n)
		lat := 0.02
		for j := range load {
			load[j], quota[j] = 20+rng.Float64()*200, 100+rng.Float64()*1400
			lat += 0.5 * load[j] / quota[j] / float64(n)
		}
		samples[i] = Sample{Load: load, Quota: quota, Latency: lat}
	}
	// The untrained model trips at tick 11 and retrains at 25.
	tm := &TrainedModel{
		Model:  gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(42))),
		Bounds: Bounds{Lo: lo, Hi: hi},
		SLO:    250 * time.Millisecond, MinRate: 50, MaxRate: 400,
		Samples: samples,
	}
	lc := &LifecycleConfig{}
	f, err := NewFleet(a, tm, FleetConfig{Dynamic: true, TickS: 5, Seed: 1, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := f.Admit(FleetTenant{ID: "tenant-00", Rate: ConstRate(60), SLO: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	f.RoundTo(30)
	f.Stop()
	if len(lc.BaseSamples) != 0 {
		t.Errorf("NewFleet wrote %d base samples into the caller's LifecycleConfig", len(lc.BaseSamples))
	}
	if _, _, _, _, retrains, _ := ten.Lifecycle().Stats(); retrains < 1 {
		t.Fatal("the tenant never retrained")
	}
	if want := fmt.Sprintf("+ %d replayed samples", len(samples)); !bytes.Contains(ten.AuditLog(), []byte(want)) {
		t.Errorf("no retrain event in the audit log says %q", want)
	}
}
