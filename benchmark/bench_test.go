package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"graf"
)

func TestPerIndexMedian(t *testing.T) {
	// A stall in one repetition's round 1 must not reach the combined series.
	got := perIndexMedian([][]float64{{1, 900, 3}, {2, 5, 3}, {1.5, 6, 30}})
	want := []float64{1.5, 6, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perIndexMedian = %v, want %v", got, want)
		}
	}
	if perIndexMedian(nil) != nil {
		t.Fatal("perIndexMedian(nil) should be nil")
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || math.Abs(quantile(xs, 0.9)-4.6) > 1e-12 {
		t.Fatalf("quantiles of %v: p50=%v p0=%v p100=%v p90=%v", xs, median(xs), quantile(xs, 0), quantile(xs, 1), quantile(xs, 0.9))
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its argument in place")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "call", StartNS: 10, EndNS: 90},
		// Two children that overlap each other, one of them running past
		// the end of its parent: the union covers [20,90) of the call.
		{ID: 3, Parent: 2, Name: "shard", StartNS: 20, EndNS: 60},
		{ID: 4, Parent: 2, Name: "shard", StartNS: 40, EndNS: 95},
	}
	self := selfTimes(spans)
	if self["round"] != 20 || self["call"] != 10 || self["shard"] != 95 {
		t.Fatalf("selfTimes = %v", self)
	}
	if tot := totalTimes(spans); tot["shard"] != 95 || tot["round"] != 100 {
		t.Fatalf("totalTimes = %v", tot)
	}
}

func TestRecorderNests(t *testing.T) {
	var off *recorder
	off.setRound(1)
	off.begin("x").end()
	off.leaf("y", time.Now(), time.Now())
	if off.snapshot() != nil {
		t.Fatal("a nil recorder recorded something")
	}
	r := newRecorder()
	r.setRound(7)
	outer := r.begin("outer")
	r.leaf("from-handler", time.Now(), time.Now())
	r.begin("inner").end()
	outer.end()
	r.begin("next").end()
	got := r.snapshot()
	parents := map[string]int{}
	for _, s := range got {
		parents[s.Name] = s.Parent
		if s.Round != 7 || s.EndNS < s.StartNS {
			t.Fatalf("bad span %+v", s)
		}
	}
	if parents["outer"] != 0 || parents["from-handler"] != 1 || parents["inner"] != 1 || parents["next"] != 0 {
		t.Fatalf("parents = %v", parents)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload tables in the
// code and BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", d)
		}
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	if len(bj.EndToEnd) != len(endToEndDefs) || len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		check(d)
		if j := bj.EndToEnd[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.name, d.bound)
		}
	}
	for i, d := range perLayerDefs {
		check(d)
		if j := bj.PerLayer[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
		if d.moves == "" || d.meaning == "" {
			t.Errorf("metric %s: no meaning or prediction", d.name)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

var tinyModel = sync.OnceValue(func() *graf.TrainedModel {
	return graf.Train(graf.OnlineBoutique(), graf.TrainOptions{
		SLO: 250 * time.Millisecond, MinRate: minRate, MaxRate: maxRate,
		Samples: 64, Iterations: 8, Batch: 16, Seed: trainSeed,
	})
})

// TestSmoke runs every workload for a few rounds with two tenants and a tiny
// shared model, untraced and traced, and checks that the output checks pass
// and that each metric BENCHMARK.json names comes out once, with its unit.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{buildDir, filepath.Join("benchmark", "out")} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		small := w
		small.tenants, small.warmup = min(w.tenants, 2), min(w.warmup, 2)
		for _, traced := range []bool{false, true} {
			res, err := run(runOpts{w: &small, seed: 1, rounds: 5, traced: traced, root: root, train: tinyModel})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 {
				t.Errorf("%s traced=%v: %d failed operations, problems %v", w.name, traced, res.failed, res.problems)
			}
			if want := repetitions * small.tenants * (small.warmup + 5); res.attempted != want {
				t.Errorf("%s: attempted %d operations, want %d", w.name, res.attempted, want)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			l := resultLine(res, defs)
			if len(l.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d defined", w.name, traced, len(l.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := l.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			for k := range res.metrics {
				if _, ok := l.Metrics[k]; !ok && (traced || !isWallClock(k)) {
					t.Errorf("%s traced=%v: metric %s is computed but not defined", w.name, traced, k)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}
