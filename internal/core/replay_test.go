package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// TestReplayAuditBitIdentical runs an instrumented control loop against a
// live simulation, writes the flight-recorder log through its JSONL encoding
// (the same bytes a file on disk would hold), and replays it: every recorded
// model-path decision must reproduce bit-for-bit from its recorded inputs.
func TestReplayAuditBitIdentical(t *testing.T) {
	a := app.OnlineBoutique()
	eng := sim.NewEngine(9)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	h := hyperbola{a: []float64{2, 2, 2, 2, 2, 2}, c: 0.01}
	an := NewAnalyzer(a)
	b := Bounds{
		Lo: []float64{100, 100, 100, 100, 100, 100},
		Hi: []float64{6000, 6000, 6000, 6000, 6000, 6000},
	}
	cfg := DefaultControllerConfig(0.150)

	var buf bytes.Buffer
	tel := obs.New(obs.Options{AuditW: &buf})
	tel.Flight.Record(obs.Record{
		Type: "header", App: a.Name, SLO: cfg.SLO,
		Services: a.ServiceNames(), Solver: SolverConfigMap(cfg.Solver),
	})
	ctl := NewController(cl, h, an, b, cfg)
	ctl.Obs = obs.NewControllerObs(tel)
	ctl.Start()

	gen := workload.NewOpenLoop(cl, workload.StepRate(20, 200, 120))
	gen.Start()
	eng.RunUntil(300)
	gen.Stop()
	ctl.Stop()
	eng.Run()
	if err := tel.Flight.Flush(); err != nil {
		t.Fatal(err)
	}

	log, err := obs.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := ReplayAudit(h, log)
	if rep.Solves == 0 {
		t.Fatal("no solve decisions recorded; nothing was replayed")
	}
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("replay not bit-identical: %s", rep)
	}
	if rep.Matched != rep.Solves {
		t.Errorf("matched %d of %d solves", rep.Matched, rep.Solves)
	}

	// A tampered log must be detected: perturb one recorded input by one ULP
	// and the replay must flag the decision.
	for i := range log {
		if log[i].Kind == "solve" && len(log[i].Load) > 0 {
			log[i].Load[0] *= 1 + 1e-15
			break
		}
	}
	if ReplayAudit(h, log).OK() {
		t.Error("replay accepted a tampered log")
	}
}

// TestReplayAuditNeedsHeader pins the failure mode for a log missing its
// header record: solves cannot be reconstructed and must be reported.
func TestReplayAuditNeedsHeader(t *testing.T) {
	log := []obs.Record{{
		Type: "decision", Kind: "solve",
		Load: []float64{1}, Lo: []float64{1}, Hi: []float64{10}, Raw: []float64{5},
	}}
	rep := ReplayAudit(hyperbola{a: []float64{1}, c: 0}, log)
	if rep.OK() || rep.Solves != 1 {
		t.Fatalf("headerless log not flagged: %s", rep)
	}
}

// TestParentRecordedV1LogReplays is the other half of versioning the solver:
// a log recorded by the commit before version 2 existed (f730b3e; its header
// names no version) still replays bit for bit — cold solves and the brownout
// rung's warm ones — because the header, not the build, picks the solver.
func TestParentRecordedV1LogReplays(t *testing.T) {
	f, err := os.Open("testdata/audit_v1_f730b3e.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := obs.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, named := log[0].Solver["version"]; log[0].Type != "header" || named {
		t.Fatalf("fixture does not open with a pre-versioning header: %+v", log[0])
	}
	if v := SolverConfigFromMap(log[0].Solver).Version; v != 1 {
		t.Fatalf("a header without a version reads as version %d, want 1", v)
	}
	h := hyperbola{a: []float64{2, 2, 2, 2, 2, 2}, c: 0.01}
	rep := ReplayAudit(h, log)
	if rep.Solves < 20 || rep.Matched != rep.Solves || !rep.OK() {
		t.Fatalf("version 1 log did not replay: %s %v", rep, rep.Mismatches)
	}
	warm := 0
	for _, r := range log {
		if r.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Error("fixture holds no warm solve")
	}

	// The same records under a version 2 header are a different recording.
	log[0].Solver["version"] = 2
	if rep := ReplayAudit(h, log); rep.OK() {
		t.Error("replay under the wrong solver version matched")
	}
	// A version this build does not implement is a reported mismatch on every
	// solve, not a panic.
	log[0].Solver["version"] = 7
	if rep := ReplayAudit(h, log); len(rep.Mismatches) != rep.Solves || rep.Matched != 0 {
		t.Errorf("unknown solver version: %s", rep)
	} else if !strings.Contains(rep.Mismatches[0], "version 7") {
		t.Errorf("mismatch does not name the version: %q", rep.Mismatches[0])
	}
}

// TestSolverConfigMapRoundTrip pins the header encoding: version 1 writes the
// five keys it always wrote, any other version adds its number, and both read
// back to the config that wrote them.
func TestSolverConfigMapRoundTrip(t *testing.T) {
	v2 := DefaultSolverConfig()
	v1 := v2
	v1.Version = 1
	if m := SolverConfigMap(v1); len(m) != 5 {
		t.Errorf("version 1 header map grew: %v", m)
	}
	if m := SolverConfigMap(v2); m["version"] != 2 {
		t.Errorf("default header map does not name version 2: %v", m)
	}
	for _, cfg := range []SolverConfig{v1, v2} {
		if got := SolverConfigFromMap(SolverConfigMap(cfg)); got != cfg {
			t.Errorf("round trip: got %+v, want %+v", got, cfg)
		}
	}
}
