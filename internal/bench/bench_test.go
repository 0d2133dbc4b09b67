package bench

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// These tests assert the *shape* targets of each experiment at the quick
// scale: who wins, direction of trends, and sanity of the tables. The
// numeric reproduction lives in EXPERIMENTS.md (standard scale).

// cell parses a table cell as float.
func cell(t *testing.T, r Result, row, col int) float64 {
	t.Helper()
	if row >= len(r.Rows) || col >= len(r.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in %d rows", r.ID, row, col, len(r.Rows))
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", r.ID, row, col, r.Rows[row][col])
	}
	return v
}

func findRow(t *testing.T, r Result, label string) int {
	t.Helper()
	for i, row := range r.Rows {
		if row[0] == label {
			return i
		}
	}
	t.Fatalf("%s: no row %q", r.ID, label)
	return -1
}

func TestFormatRendersAllParts(t *testing.T) {
	r := Result{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Note("hello %d", 7)
	out := r.Format()
	for _, want := range []string{"== x: T ==", "a", "bb", "1", "2", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestFig01MatchesPaperBand(t *testing.T) {
	r := Fig01InstanceCreation(Quick())
	if len(r.Rows) != 5 {
		t.Fatalf("fig01 has %d rows, want 5", len(r.Rows))
	}
	for i := range r.Rows {
		got := cell(t, r, i, 1)
		paper := cell(t, r, i, 2)
		if got < paper*0.7 || got > paper*1.3 {
			t.Errorf("batch %s: %.1fs vs paper %.1fs (>30%% off)", r.Rows[i][0], got, paper)
		}
	}
}

func TestFig06CurveShape(t *testing.T) {
	r := Fig06LatencyCurves(Quick())
	n := len(r.Rows)
	// Catalogue strictly above web at every quota; both decrease overall.
	for i := 0; i < n; i++ {
		web, cat := cell(t, r, i, 1), cell(t, r, i, 2)
		if cat <= web {
			t.Errorf("quota %s: catalogue %.1f ≤ web %.1f", r.Rows[i][0], cat, web)
		}
	}
	if cell(t, r, n-1, 1) >= cell(t, r, 1, 1) {
		t.Error("web latency did not decrease across the sweep")
	}
	if cell(t, r, n-1, 2) >= cell(t, r, 1, 2) {
		t.Error("catalogue latency did not decrease across the sweep")
	}
}

func TestSurgeShapeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("surge study is seconds-long")
	}
	s := Quick()
	r2 := Fig02SurgeInstances(s)
	peak := findRow(t, r2, "peak")
	pro := cell(t, r2, peak, 1)
	h10 := cell(t, r2, peak, 2)
	h25 := cell(t, r2, peak, 3)
	h50 := cell(t, r2, peak, 4)
	if !(h10 > h25 && h25 > h50 && h50 > pro) {
		t.Errorf("fig02 peak ordering violated: pro=%v h10=%v h25=%v h50=%v (want h10>h25>h50>pro)", pro, h10, h25, h50)
	}
	if h10 < 4*pro {
		t.Errorf("fig02: HPA(10%%) peak %v not ≫ proactive %v (paper: 6.6×)", h10, pro)
	}

	r3 := Fig03SurgeLatency(s)
	p99row := findRow(t, r3, "99%-tile")
	proL := cell(t, r3, p99row, 1)
	for col := 2; col <= 4; col++ {
		if hl := cell(t, r3, p99row, col); hl <= proL {
			t.Errorf("fig03: HPA p99 %v not above proactive %v", hl, proL)
		}
	}

	r7 := Fig07CascadingEffect(s)
	// Deep services perceive the surge later than the frontend under HPA,
	// and proactive is never slower than HPA.
	front := cell(t, r7, 0, 1)
	worst := 0.0
	for i := range r7.Rows {
		hpa := cell(t, r7, i, 1)
		pro := cell(t, r7, i, 2)
		if pro > hpa {
			t.Errorf("fig07 %s: proactive (%v) slower than HPA (%v)", r7.Rows[i][0], pro, hpa)
		}
		if hpa > worst {
			worst = hpa
		}
	}
	if worst <= front {
		t.Errorf("fig07: no cascading effect (deepest %v ≤ frontend %v)", worst, front)
	}
}

func TestModelShapeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	s := Quick()
	r := Tab02PredictionError(s)
	over := cell(t, r, len(r.Rows)-1, 1)
	if over < -10 {
		t.Errorf("tab02: strong underestimation bias %.1f%% (want ≳ 0, paper +5.2%%)", over)
	}
	wide := cell(t, r, 3, 1) // 0-800ms region MAPE
	if wide <= 0 || wide > 60 {
		t.Errorf("tab02: 0-800ms MAPE %.1f%% implausible", wide)
	}

	r11 := Fig11MPNNAblation(s)
	mapeRow := findRow(t, r11, "test MAPE %")
	graf, nom := cell(t, r11, mapeRow, 1), cell(t, r11, mapeRow, 2)
	if graf > nom*1.25 {
		t.Errorf("fig11: GRAF test MAPE %.1f%% much worse than no-MPNN %.1f%%", graf, nom)
	}

	r13 := Fig13SearchSpace(s)
	for i := 0; i < len(r13.Rows)-1; i++ {
		lo, hi := cell(t, r13, i, 1), cell(t, r13, i, 2)
		if lo >= hi || lo < 50 || hi > 3000 {
			t.Errorf("fig13 %s: bounds [%v,%v] invalid", r13.Rows[i][0], lo, hi)
		}
	}
}

func TestFig12SingleBasin(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	r := Fig12LossHeatmap(Quick())
	if len(r.Rows) != 6 || len(r.Rows[0]) != 7 {
		t.Fatalf("fig12 grid %dx%d, want 6x7", len(r.Rows), len(r.Rows[0]))
	}
	// The minimum must be interior-ish: not at the largest quotas corner.
	min, minI, minJ := 1e18, 0, 0
	for i := range r.Rows {
		for j := 1; j < 7; j++ {
			if v := cell(t, r, i, j); v < min {
				min, minI, minJ = v, i, j
			}
		}
	}
	if minI == 5 && minJ == 6 {
		t.Error("fig12: loss minimum at max-quota corner — resource term not biting")
	}
}

func TestFig14GRAFWinsOrTies(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state study")
	}
	r := Fig14TotalCPU(Quick())
	for i := range r.Rows {
		saving := cell(t, r, i, 3)
		grafP99 := cell(t, r, i, 4)
		slo := cell(t, r, i, 6)
		if grafP99 > slo {
			t.Errorf("fig14 %s: GRAF p99 %.1fms violates SLO %.0fms", r.Rows[i][0], grafP99, slo)
		}
		if saving < -15 {
			t.Errorf("fig14 %s: GRAF uses %.1f%% MORE CPU than tuned K8s", r.Rows[i][0], -saving)
		}
	}
}

func TestFig17MostlyWithinSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state study")
	}
	r := Fig17SLOTargeting(Quick())
	last := r.Rows[len(r.Rows)-1]
	frac := strings.TrimSuffix(last[2], "%")
	v, err := strconv.ParseFloat(frac, 64)
	if err != nil {
		t.Fatalf("within-SLO cell %q", last[2])
	}
	if v < 60 {
		t.Errorf("fig17: only %.0f%% of configurations within SLO (paper: 85.1%%)", v)
	}
}

func TestTab03MatchesPaperExactly(t *testing.T) {
	r := Tab03Budget(Quick())
	for _, row := range r.Rows {
		got, err1 := strconv.ParseFloat(row[3], 64)
		want, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("tab03 %s: %.2f vs paper %.2f", row[0], got, want)
		}
	}
}

func TestCostArithmetic(t *testing.T) {
	cb := Cost(50000)
	if cb.SampleHours < 208 || cb.SampleHours > 209 {
		t.Errorf("50k samples → %.1fh, want 208.3h", cb.SampleHours)
	}
	if cb.Total < 112 || cb.Total > 112.5 {
		t.Errorf("total $%.2f, want $112.17", cb.Total)
	}
	if Cost(100000).Total <= cb.Total {
		t.Error("cost must grow with samples")
	}
}

func TestScalesAreOrdered(t *testing.T) {
	q, s, f := Quick(), Standard(), Full()
	if !(q.Samples < s.Samples && s.Samples < f.Samples) {
		t.Error("sample budgets not ordered")
	}
	if !(q.Iterations < s.Iterations && s.Iterations < f.Iterations) {
		t.Error("iteration budgets not ordered")
	}
}

func TestChaosHardenedBeatsVanilla(t *testing.T) {
	tr := BoutiquePipeline(Quick())
	hardened := runChaosPolicy(tr, "graf", tr.Spec.SLO, 42)
	vanilla := runChaosPolicy(tr, "graf-vanilla", tr.Spec.SLO, 42)
	if hardened.violRate >= vanilla.violRate {
		t.Errorf("hardened viol rate %.3f not strictly below vanilla %.3f",
			hardened.violRate, vanilla.violRate)
	}
	if hardened.stranded != 0 || vanilla.stranded != 0 {
		t.Errorf("stranded in-flight requests after drain: hardened=%d vanilla=%d",
			hardened.stranded, vanilla.stranded)
	}
	if hardened.stats.StaleHolds == 0 {
		t.Error("telemetry blackhole never engaged the stale-telemetry hold")
	}
	sawDegraded := false
	for _, h := range hardened.health {
		if strings.Contains(h, "DegradedTelemetry") {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Errorf("no DegradedTelemetry transition in health log %v", hardened.health)
	}
	if vanilla.stats.StaleHolds != 0 || vanilla.stats.BreakerTrips != 0 || vanilla.stats.RateLimited != 0 {
		t.Error("vanilla configuration must run with guardrails disabled")
	}
}

// TestOverloadLadderBeatsFixedPolicies holds the overload experiment's
// orderings on ten fleet seeds: the ladder misses fewer round deadlines than
// never-degrade, pays fewer violation seconds than always-heuristic, and
// walks the ladder one rung at a time. Round costs are counted model calls,
// so the stats must not depend on GOMAXPROCS.
func TestOverloadLadderBeatsFixedPolicies(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		_, st := runOverload(Quick(), seed)
		if st.MissesLadder >= st.MissesNever {
			t.Errorf("seed %d: ladder deadline misses %.0f not below never-degrade %.0f", seed, st.MissesLadder, st.MissesNever)
		}
		if st.ViolSLadder >= st.ViolSHeuristic {
			t.Errorf("seed %d: ladder violation seconds %.0f not below always-heuristic %.0f", seed, st.ViolSLadder, st.ViolSHeuristic)
		}
		if !st.Monotone || st.LadderTransitions < 1 {
			t.Errorf("seed %d: ladder walk monotone=%v with %.0f transitions", seed, st.Monotone, st.LadderTransitions)
		}
	}

	stats := func(procs int) OverloadStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, st := runOverload(Quick(), 9)
		return st
	}
	if one, two := stats(1), stats(2); !reflect.DeepEqual(one, two) {
		t.Errorf("overload stats depend on GOMAXPROCS:\n1: %+v\n2: %+v", one, two)
	}
}

func TestDriftLifecycleBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("drift experiment needs a trained pipeline")
	}
	tr := BoutiquePipeline(Quick())
	lc := runDrift(tr, true, tr.Spec.SLO, 42, 480)
	st := runDrift(tr, false, tr.Spec.SLO, 42, 480)
	if lc.violS >= st.violS {
		t.Errorf("lifecycle viol-s %.0f not strictly below static %.0f\nevents: %v",
			lc.violS, st.violS, lc.events)
	}
	if lc.trips < 1 {
		t.Errorf("residual monitor never tripped on a ×1.6 surface drift: %v", lc.events)
	}
	if lc.promos < 1 {
		t.Errorf("no retrained candidate was canary-promoted: %v", lc.events)
	}
	if lc.gen < 1 {
		t.Errorf("final incumbent still gen %d after promotion", lc.gen)
	}
	if lc.stranded != 0 || st.stranded != 0 {
		t.Errorf("stranded in-flight requests after drain: lifecycle=%d static=%d",
			lc.stranded, st.stranded)
	}
	if st.trips != 0 || st.promos != 0 {
		t.Error("static run must not carry a lifecycle manager")
	}
}

func TestRecoveryWarmBeatsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery experiment needs a trained pipeline")
	}
	tr := BoutiquePipeline(Quick())
	warm := runRecovery(tr, true, tr.Spec.SLO, 42)
	cold := runRecovery(tr, false, tr.Spec.SLO, 42)
	if warm.violS >= cold.violS {
		t.Errorf("warm viol-s %.0f not strictly below cold %.0f", warm.violS, cold.violS)
	}
	if warm.reconvergeTick >= cold.reconvergeTick {
		t.Errorf("warm reconverged in %d ticks, not strictly fewer than cold's %d",
			warm.reconvergeTick, cold.reconvergeTick)
	}
	if warm.crashes != 1 || cold.crashes != 1 {
		t.Errorf("crashes warm=%d cold=%d, want one scripted kill per run", warm.crashes, cold.crashes)
	}
	if warm.mode != "warm" || cold.mode != "cold" {
		t.Errorf("restore modes warm=%q cold=%q, want warm and cold", warm.mode, cold.mode)
	}
	if warm.stranded != 0 || cold.stranded != 0 {
		t.Errorf("stranded in-flight requests after drain: warm=%d cold=%d",
			warm.stranded, cold.stranded)
	}
}

// TestSolverLoopRuns smoke-tests the closed-loop solver comparison at its
// smallest size: both versions produce a row per trace, and version 2 makes
// its decisions on a fraction of version 1's model calls.
func TestSolverLoopRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	r := SolverLoop(Quick())
	if len(r.Rows) != 2 {
		t.Fatalf("want a diurnal and a step row, got %v", r.Rows)
	}
	for i, row := range r.Rows {
		if v1, v2 := cell(t, r, i, 6), cell(t, r, i, 7); !(v2 > 0 && v2 < v1/4) {
			t.Errorf("%s: %v model calls per solve under version 2 against %v under version 1, want under a quarter", row[1], v2, v1)
		}
	}
}

// TestTraceOverheadSpanCountRepeats: the traced quick-scale fleet reports
// the same spans_recorded on every run. Forward-pass spans are counted
// apart, because how many passes run depends on which tenants miss the
// shared cache at the same moment.
func TestTraceOverheadSpanCountRepeats(t *testing.T) {
	_, a := TraceOverheadRun(Quick())
	_, b := TraceOverheadRun(Quick())
	if a.Spans == 0 || a.Spans != b.Spans {
		t.Fatalf("spans_recorded %v then %v: want one positive count", a.Spans, b.Spans)
	}
	if a.Passes == 0 {
		t.Fatal("no forward-pass spans recorded")
	}
}
