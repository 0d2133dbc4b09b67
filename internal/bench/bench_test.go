package bench

import (
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

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

// TestExperimentIDs holds the experiment index to the ids grafbench -list
// has printed since solver-loop landed, each unique and flag-safe.
func TestExperimentIDs(t *testing.T) {
	want := strings.Fields(`abl-anomaly abl-integer abl-loss abl-partition abl-sampler
		abl-solver abl-steps chaos drift fig01 fig02 fig03 fig06 fig07 fig11 fig12 fig13
		fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fleet-rpc forecast
		obs-overhead overload recovery replay router-failover scalability slo-burn
		solver-loop tab01 tab02 tab03 trace-overhead`)
	valid := regexp.MustCompile(`^[a-z0-9-]+$`)
	var ids []string
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] || !valid.MatchString(e.ID) {
			t.Errorf("experiment id %q repeated or not [a-z0-9-]+", e.ID)
		}
		seen[e.ID] = true
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("experiment ids\n%v\nwant\n%v", ids, want)
	}
}

func TestResultFailures(t *testing.T) {
	var ok Result
	if err := ok.Err(); err != nil {
		t.Errorf("empty result: Err() = %v, want nil", err)
	}
	r := Result{ID: "x", Title: "T"}
	r.Note("fine")
	r.Fail("blackout %d ms, ceiling %d ms", 6000, 5000)
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "x: blackout 6000 ms, ceiling 5000 ms") {
		t.Errorf("Err() = %v, want the recorded failure", err)
	}
	if out := r.Format(); !strings.Contains(out, "FAIL: blackout 6000 ms, ceiling 5000 ms") {
		t.Errorf("Format does not print the failure:\n%s", out)
	}
}

// TestExperimentFloors runs every experiment at quick scale and fails on any
// floor its runner records. The subtests run one after another: runners share
// tuneMemo, which has no lock. Under -short only the experiments that train no
// model run. Under -race only those whose runners start goroutines of their
// own (fleet rounds, RPC shards) run: the others are single-goroutine apart
// from model training, whose goroutines gnn's and core's tests race, and
// overload still trains its pipeline here.
func TestExperimentFloors(t *testing.T) {
	trainsNoModel := map[string]bool{"fig01": true, "fig02": true, "fig03": true, "fig06": true,
		"fig07": true, "tab01": true, "tab03": true, "scalability": true, "fleet-rpc": true,
		"router-failover": true, "slo-burn": true, "trace-overhead": true}
	concurrent := map[string]bool{"fleet-rpc": true, "router-failover": true, "overload": true, "trace-overhead": true}
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && !trainsNoModel[e.ID] {
				t.Skip("trains a model")
			}
			if raceEnabled && !concurrent[e.ID] {
				t.Skip("starts no goroutine of its own")
			}
			if res := e.Run(quick()); res.Err() != nil {
				t.Errorf("%v\n%s", res.Err(), res.Format())
			}
		})
	}
}

// TestFig15IgnoresRunOrder: fig15's K8s column is the HPA that fig14 tunes
// first in a full run, and it must read the same when fig15 runs alone.
func TestFig15IgnoresRunOrder(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains a model; starts no goroutine of its own")
	}
	clear(tuneMemo)
	alone := fig15PerMSBoutique(quick())
	clear(tuneMemo)
	fig14TotalCPU(quick())
	if after := fig15PerMSBoutique(quick()); !reflect.DeepEqual(alone.Rows, after.Rows) {
		t.Errorf("fig15 alone\n%v\nafter fig14\n%v", alone.Rows, after.Rows)
	}
}

func TestCostArithmetic(t *testing.T) {
	cb := oneTimeCost(50000)
	if cb.SampleHours < 208 || cb.SampleHours > 209 {
		t.Errorf("50k samples → %.1fh, want 208.3h", cb.SampleHours)
	}
	if cb.Total < 112 || cb.Total > 112.5 {
		t.Errorf("total $%.2f, want $112.17", cb.Total)
	}
	if oneTimeCost(100000).Total <= cb.Total {
		t.Error("cost must grow with samples")
	}
}

func TestScalesAreOrdered(t *testing.T) {
	q, s, f := quick(), standard(), full()
	if !(q.Samples < s.Samples && s.Samples < f.Samples) {
		t.Error("sample budgets not ordered")
	}
	if !(q.Iterations < s.Iterations && s.Iterations < f.Iterations) {
		t.Error("iteration budgets not ordered")
	}
}

// TestOverloadLadderBeatsFixedPolicies holds the overload experiment's
// floors on ten fleet seeds: the ladder misses fewer round deadlines than
// never-degrade, pays fewer violation seconds than always-heuristic, and
// walks the ladder one rung at a time. Round costs are counted model calls,
// so the table must not depend on GOMAXPROCS.
func TestOverloadLadderBeatsFixedPolicies(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if err := runOverload(quick(), seed).Err(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}

	table := func(procs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return runOverload(quick(), 9)
	}
	if one, two := table(1), table(2); !reflect.DeepEqual(one, two) {
		t.Errorf("overload table depends on GOMAXPROCS:\n1: %+v\n2: %+v", one, two)
	}
}

// TestTraceOverheadSpanCountRepeats: the traced quick-scale fleet reports
// the same spans_recorded on every run. Forward-pass spans are counted
// apart, because how many passes run depends on which tenants miss the
// shared cache at the same moment.
func TestTraceOverheadSpanCountRepeats(t *testing.T) {
	a, b := measureTracing(quick()), measureTracing(quick())
	if a.spans == 0 || a.spans != b.spans {
		t.Fatalf("spans_recorded %v then %v: want one positive count", a.spans, b.spans)
	}
	if a.passes == 0 {
		t.Fatal("no forward-pass spans recorded")
	}
}
