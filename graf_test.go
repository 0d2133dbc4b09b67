package graf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// quickTrain trains a small model once for the public-API tests.
var quickTrained *TrainedModel

func trained(t *testing.T) *TrainedModel {
	t.Helper()
	if quickTrained == nil {
		quickTrained = Train(OnlineBoutique(), TrainOptions{
			SLO: 250 * time.Millisecond, MinRate: 40, MaxRate: 320,
			Samples: 600, Iterations: 220, Batch: 64, Seed: 3,
		})
	}
	return quickTrained
}

func TestSimulationBasics(t *testing.T) {
	s := NewSimulation(OnlineBoutique(), 1)
	gen := s.OpenLoop(ConstRate(30))
	gen.Start()
	s.RunFor(60 * time.Second)
	gen.Stop()
	if s.Now() < 60*time.Second {
		t.Errorf("Now = %v, want ≥ 60s", s.Now())
	}
	if s.P99(30*time.Second) <= 0 {
		t.Error("no latency observed")
	}
}

func TestTrainAndSolve(t *testing.T) {
	tr := trained(t)
	load := DistributeWorkload(OnlineBoutique(), map[string]float64{"cart": 60, "product": 60, "home": 30})
	sol := Solve(tr, load, 250*time.Millisecond)
	if len(sol.Quotas) != 6 {
		t.Fatalf("solution has %d quotas", len(sol.Quotas))
	}
	if sol.Predicted > 0.250*1.05 {
		t.Errorf("solver violated SLO: predicted %.3fs", sol.Predicted)
	}
	for i, q := range sol.Quotas {
		if q < tr.Bounds.Lo[i]-1e-9 || q > tr.Bounds.Hi[i]+1e-9 {
			t.Errorf("quota %d = %v outside bounds", i, q)
		}
	}
}

// Same options, same process, same bytes: nothing on the offline path
// (search-space reduction, sample collection, training) may depend on map
// iteration order, nor on how many workers the trainer runs on, which
// GOMAXPROCS sets.
func TestTrainIsByteReproducible(t *testing.T) {
	o := TrainOptions{
		SLO: 250 * time.Millisecond, MinRate: 40, MaxRate: 320,
		Samples: 120, Iterations: 40, Batch: 16, Seed: 5,
	}
	var first []byte
	for _, procs := range []int{2, 2, 1, 5} {
		prev := runtime.GOMAXPROCS(procs)
		blob, err := Train(OnlineBoutique(), o).Model.MarshalBinary()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = blob
		} else if !bytes.Equal(blob, first) {
			t.Errorf("Train at GOMAXPROCS %d produced other model bytes than the first call, at 2", procs)
		}
	}
}

// TestTrainModelBytesArePinned pins the bytes graf.Train produces, recorded
// on amd64 at f2e08d8: the first options are the repo benchmark's model, the
// second label with the simulator. A change to the offline recipe that moves
// either must be deliberate and re-record the value. Other architectures may
// fuse multiply-adds and are skipped.
func TestTrainModelBytesArePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	for _, c := range []struct {
		o    TrainOptions
		want string
	}{
		{TrainOptions{
			SLO: 250 * time.Millisecond, MinRate: 50, MaxRate: 300,
			Samples: 800, Iterations: 400, Batch: 32, Seed: 1,
		}, "d39c736c53257a028add8016e801c47d946bb76c8265bb2dd29d880711c67763"},
		{TrainOptions{
			SLO: 250 * time.Millisecond, MinRate: 40, MaxRate: 320,
			Samples: 120, Iterations: 40, Batch: 16, Seed: 5, SimulatorLabels: true,
		}, "17bad557e29c91bce4a76e55f6b304c8aa839fb820a570ff1720c8e42c2a0931"},
	} {
		blob, err := Train(OnlineBoutique(), c.o).Model.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("Train(%+v) model sha256 = %x, want %s", c.o, sum, c.want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := trained(t)
	path := filepath.Join(t.TempDir(), "model.graf")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	load := DistributeWorkload(OnlineBoutique(), map[string]float64{"cart": 50})
	quota := make([]float64, 6)
	for i := range quota {
		quota[i] = 800
	}
	if got.Model.Predict(load, quota) != tr.Model.Predict(load, quota) {
		t.Error("loaded model predicts differently")
	}
	if got.MaxRate != tr.MaxRate || got.SLO != tr.SLO {
		t.Error("metadata not preserved")
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading a missing file should fail")
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Error("loading garbage should fail")
	}
}

func TestStartGRAFRejectsMismatchedModel(t *testing.T) {
	tr := trained(t) // trained for OnlineBoutique (6 services)
	s := NewSimulation(RobotShop(), 7)
	if _, err := s.StartGRAF(tr, 250*time.Millisecond); err == nil {
		t.Fatal("StartGRAF accepted a model trained for a different application")
	}
	if err := tr.ValidateFor(RobotShop()); err == nil {
		t.Error("ValidateFor accepted a 6-service model for a 2-service app")
	}
	if err := tr.ValidateFor(OnlineBoutique()); err != nil {
		t.Errorf("ValidateFor rejected the matching application: %v", err)
	}

	// Truncated bounds must be caught even when the service count matches.
	bad := *tr
	bad.Bounds = Bounds{Lo: tr.Bounds.Lo[:3], Hi: tr.Bounds.Hi[:3]}
	if err := bad.ValidateFor(OnlineBoutique()); err == nil {
		t.Error("ValidateFor accepted truncated bounds")
	}
}

func TestGRAFControllerEndToEnd(t *testing.T) {
	tr := trained(t)
	s := NewSimulation(OnlineBoutique(), 5)
	ctl, err := s.StartGRAF(tr, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.OpenLoop(ConstRate(120))
	gen.Start()
	s.RunFor(4 * time.Minute)
	gen.Stop()
	ctl.Stop()
	s.RunFor(time.Minute)
	if ctl.Solves() == 0 {
		t.Fatal("controller never solved")
	}
	p99 := s.P99(90 * time.Second)
	if p99 <= 0 {
		t.Fatal("no tail latency measured")
	}
	// Generous 2× band: quick-budget model on a stochastic system.
	if p99 > 500*time.Millisecond {
		t.Errorf("p99 %v far above the 250ms SLO", p99)
	}
}

func TestBaselinesViaPublicAPI(t *testing.T) {
	s := NewSimulation(OnlineBoutique(), 6)
	h := s.StartHPA(0.5)
	gen := s.OpenLoop(ConstRate(120))
	gen.Start()
	s.RunFor(3 * time.Minute)
	gen.Stop()
	h.Stop()
	if s.Cluster.TotalInstances() <= 6 {
		t.Error("HPA did not scale via public API")
	}

	s2 := NewSimulation(OnlineBoutique(), 7)
	f := s2.StartFIRM()
	gen2 := s2.OpenLoop(ConstRate(200))
	gen2.Start()
	s2.RunFor(3 * time.Minute)
	gen2.Stop()
	f.Stop()
	total := 0.0
	for _, q := range s2.Cluster.Quotas() {
		total += q
	}
	if total <= 6*250 {
		t.Error("FIRM-like did not scale via public API")
	}
}

func TestBuiltinAppsExported(t *testing.T) {
	for _, a := range []*App{OnlineBoutique(), SocialNetwork(), RobotShop(), Bookinfo()} {
		if len(a.Services) == 0 {
			t.Errorf("%s has no services", a.Name)
		}
	}
}

func TestStepRateHelper(t *testing.T) {
	r := StepRate(10, 100, 30*time.Second)
	if r(29) != 10 || r(31) != 100 {
		t.Error("StepRate switch point wrong")
	}
}

func TestChaosViaPublicAPI(t *testing.T) {
	s := NewSimulation(OnlineBoutique(), 21)
	for _, svc := range OnlineBoutique().ServiceNames() {
		s.Cluster.Deployment(svc).SetReplicas(3)
	}
	gen := s.OpenLoop(ConstRate(40))
	gen.Start()
	s.RunFor(60 * time.Second)

	inj := s.Chaos()
	if inj != s.Chaos() {
		t.Fatal("Chaos() must memoize the injector")
	}
	tel := s.EnableObservability() // records every firing
	inj.Play([]ChaosEvent{
		ChaosKill(1*time.Second, "cart", 1),
		ChaosCrashFraction(5*time.Second, 0.3),
		ChaosTelemetryBlackhole(10*time.Second, 10*time.Second),
		ChaosArrivalSampling(12*time.Second, 0.5, 5*time.Second),
		ChaosTraceDrop(12*time.Second, 0.5, 5*time.Second),
		ChaosContention(15*time.Second, "currency", 2.0, 5*time.Second),
	})
	s.RunFor(60 * time.Second)
	gen.Stop()
	s.Engine.Run()

	fired := 0
	for _, r := range tel.Flight.Records() {
		if r.Type == "chaos" {
			fired++
		}
	}
	if fired != 6 {
		t.Fatalf("injector fired %d events, want 6", fired)
	}
	if s.Cluster.KilledTotal() == 0 {
		t.Error("no instances were killed")
	}
	if s.Cluster.InFlight() != 0 {
		t.Errorf("%d requests stranded after drain", s.Cluster.InFlight())
	}
}
