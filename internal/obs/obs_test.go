package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixtureRegistry populates a registry with one family of every kind,
// labeled and unlabeled children, and label values that need escaping.
func buildFixtureRegistry() *Registry {
	r := newRegistry()
	r.Counter("graf_decisions_total", "Controller decisions by outcome kind.", Labels{"kind": "solve"}).Add(12)
	r.Counter("graf_decisions_total", "Controller decisions by outcome kind.", Labels{"kind": "fallback"}).Add(3)
	r.Gauge("graf_health_state", "Current controller health state.", nil).Set(2)
	r.Gauge("graf_quota_millicores", "CPU quota per service.", Labels{"service": `front"end\v1` + "\n"}).Set(1.75)
	h := r.Histogram("graf_decision_stage_seconds", "Wall-clock cost of each decision stage.",
		[]float64{0.001, 0.01, 0.1}, Labels{"stage": "solve"})
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 0.7} {
		h.Observe(v)
	}
	return r
}

// TestExposeGolden pins the full Prometheus text exposition — HELP/TYPE
// lines, label escaping, bucket rendering — against a golden file.
func TestExposeGolden(t *testing.T) {
	got := buildFixtureRegistry().Expose()
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExposeFormat checks structural invariants of the exposition
// independent of the golden file: exactly one HELP and TYPE line per family,
// escaped label values, cumulative buckets ending in +Inf == _count.
func TestExposeFormat(t *testing.T) {
	out := buildFixtureRegistry().Expose()

	for _, fam := range []string{"graf_decisions_total", "graf_health_state", "graf_quota_millicores", "graf_decision_stage_seconds"} {
		if n := strings.Count(out, "# HELP "+fam+" "); n != 1 {
			t.Errorf("family %s: %d HELP lines, want 1", fam, n)
		}
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("family %s: %d TYPE lines, want 1", fam, n)
		}
	}
	if !strings.Contains(out, `service="front\"end\\v1\n"`) {
		t.Errorf("label value not escaped per text format; output:\n%s", out)
	}

	// Bucket cumulativity: each le count must be >= the previous, and the
	// +Inf bucket must equal _count.
	var prev float64 = -1
	var inf, count float64
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "graf_decision_stage_seconds_bucket"):
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("bucket counts not cumulative: %v after %v in %q", v, prev, line)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "graf_decision_stage_seconds_count"):
			count, _ = strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		}
	}
	if inf != count || count != 5 {
		t.Errorf("+Inf bucket %v, _count %v; want both 5", inf, count)
	}
}

// TestRegistryKindMismatchPanics pins that re-registering a name as a
// different kind is a programming error, not a silent aliasing bug.
func TestRegistryKindMismatchPanics(t *testing.T) {
	r := newRegistry()
	r.Counter("graf_x_total", "x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("graf_x_total", "x", nil)
}

// TestRegistryConcurrent hammers the registry from many goroutines while a
// reader renders expositions — run under -race this is the thread-safety
// proof for the sim-goroutine-writes / scraper-goroutine-reads split.
func TestRegistryConcurrent(t *testing.T) {
	r := newRegistry()
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := Labels{"worker": fmt.Sprint(w % 4)}
			for i := 0; i < iters; i++ {
				r.Counter("graf_ops_total", "ops", lbl).Inc()
				r.Gauge("graf_level", "level", lbl).Set(float64(i))
				r.Histogram("graf_cost_seconds", "cost", nil, lbl).Observe(float64(i) / 1000)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.Expose()
			_ = r.Snapshot()
		}
	}()
	wg.Wait()

	var total float64
	for w := 0; w < 4; w++ {
		total += r.Counter("graf_ops_total", "ops", Labels{"worker": fmt.Sprint(w)}).Value()
	}
	if total != workers*iters {
		t.Errorf("lost increments: total %v, want %v", total, workers*iters)
	}
}

// TestFlightRoundTrip pins that a flight record survives JSONL encode/decode
// bit-identically, including awkward float64s — the property replay rests on.
func TestFlightRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := newFlightRecorder(&buf, 0)
	rec := Record{
		Type: "decision", At: 130.5, Kind: "solve", Health: "healthy",
		Rates: map[string]float64{"checkout": 1.0 / 3.0, "search": 0.1},
		Load:  []float64{0.1, 1e-17, 123456.789012345678},
		Lo:    []float64{0.5, 0.5, 0.5},
		Hi:    []float64{8, 8, 8},
		Raw:   []float64{1.2345678901234567, 2.7182818284590455, 0.30000000000000004},
		Scale: 1.25, Predicted: 0.19999999999999998, Iters: 137, Converged: true,
		Applied: map[string]float64{"checkout": 2.5},
	}
	f.Record(rec)
	f.Record(Record{Type: "health", At: 140, From: "healthy", To: "boosting"})
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	d := got[0]
	for i, v := range rec.Raw {
		if d.Raw[i] != v {
			t.Errorf("Raw[%d] = %v, want bit-identical %v", i, d.Raw[i], v)
		}
	}
	for i, v := range rec.Load {
		if d.Load[i] != v {
			t.Errorf("Load[%d] = %v, want bit-identical %v", i, d.Load[i], v)
		}
	}
	if d.Rates["checkout"] != rec.Rates["checkout"] || d.Predicted != rec.Predicted {
		t.Error("float fields did not round-trip bit-identically")
	}
	if d.Seq != 1 || got[1].Seq != 2 {
		t.Errorf("sequence numbers %d,%d, want 1,2", d.Seq, got[1].Seq)
	}
}

// TestFlightMemoryCap pins bounded-memory eviction semantics.
func TestFlightMemoryCap(t *testing.T) {
	f := newFlightRecorder(nil, 3)
	for i := 0; i < 10; i++ {
		f.Record(Record{Type: "decision", At: float64(i)})
	}
	recs := f.Records()
	if len(recs) != 3 || f.Dropped() != 7 {
		t.Fatalf("retained %d dropped %d, want 3 and 7", len(recs), f.Dropped())
	}
	if recs[0].At != 7 || recs[2].At != 9 || recs[2].Seq != 10 {
		t.Errorf("wrong records retained: %+v", recs)
	}
	// Oldest first at every point of the ring's wrap, not only a multiple
	// of the cap.
	f = newFlightRecorder(nil, 3)
	for i := 0; i < 8; i++ {
		f.Record(Record{Type: "decision", At: float64(i)})
		recs := f.Records()
		if want := min(i+1, 3); len(recs) != want {
			t.Fatalf("after %d records: %d retained, want %d", i+1, len(recs), want)
		}
		for j, rec := range recs {
			if want := float64(i + 1 - len(recs) + j); rec.At != want || rec.Seq != int(want)+1 {
				t.Errorf("after %d records: record %d is at %v seq %d, want at %v seq %v", i+1, j, rec.At, rec.Seq, want, want+1)
			}
		}
	}
}

// TestActiveChaos pins window registration, pruning and sorted labels.
func TestActiveChaos(t *testing.T) {
	tel := New(Options{})
	tel.ChaosActive("kill", 130)
	tel.ChaosActive("cpu-stress", 200)
	got := tel.ActiveChaos(120)
	if len(got) != 2 || got[0] != "cpu-stress" || got[1] != "kill" {
		t.Fatalf("ActiveChaos(120) = %v", got)
	}
	got = tel.ActiveChaos(150)
	if len(got) != 1 || got[0] != "cpu-stress" {
		t.Fatalf("ActiveChaos(150) = %v, want [cpu-stress] after pruning", got)
	}
}

// TestHandlerMetrics smoke-tests the /metrics endpoint content type wiring
// via the handler directly (no network).
func TestHandlerMetrics(t *testing.T) {
	tel := New(Options{})
	tel.Reg.Counter("graf_decisions_total", "d", Labels{"kind": "solve"}).Inc()
	rec := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `graf_decisions_total{kind="solve"} 1`) {
		t.Errorf("missing sample in body:\n%s", rec.Body.String())
	}
}

// TestExpvarShowsTheServedBundle: /debug/vars publishes the registry of the
// bundle a process serves, not of whichever bundle was built last — a fleet
// builds one per tenant after its own.
func TestExpvarShowsTheServedBundle(t *testing.T) {
	served := New(Options{})
	served.Reg.Counter("graf_decisions_total", "d", Labels{"kind": "solve"}).Add(7)
	h := served.Handler()
	for i := 0; i < 3; i++ {
		New(Options{}).Reg.Counter("graf_tenant_only_total", "t", nil).Inc()
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars struct {
		Graf map[string]float64 `json:"graf"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if got := vars.Graf[`graf_decisions_total{kind="solve"}`]; got != 7 {
		t.Errorf("served counter reads %v in /debug/vars, want 7: %v", got, vars.Graf)
	}
	if _, ok := vars.Graf["graf_tenant_only_total"]; ok {
		t.Errorf("/debug/vars shows a bundle built after the served one: %v", vars.Graf)
	}
}

// TestNilHooksAreNoOps pins the nil-receiver contract every instrumented
// call site relies on.
func TestNilHooksAreNoOps(t *testing.T) {
	var c *ControllerObs
	c.Stage("solve", 1, nil)
	c.Solver(1, true, 1)
	c.Decision(Record{Kind: "solve"})
	c.Health(0, "a", "b", 1)
	var cl *ClusterObs
	cl.Scale("svc", 1, 2)
	cl.Churn("svc", 1, 1, 1, 1)
	var ch *ChaosObs
	ch.Fired(0, "kill", "", 0)
	var tr *TrainObs
	tr.Eval(0, 1, 1)
	tr.Batch(1)
	if NewControllerObs(nil) != nil || NewClusterObs(nil) != nil ||
		NewChaosObs(nil) != nil || NewTrainObs(nil) != nil {
		t.Error("constructors must return nil for nil telemetry")
	}
}

// A lookup that finds its child builds the label key on the stack: the
// per-stage, per-decision and per-service metric updates every tick make
// allocate nothing. Only the first lookup of a child allocates its key.
func TestRegistryHitAllocatesNothing(t *testing.T) {
	r := newRegistry()
	one := Labels{"stage": "solve"}
	two := Labels{"tenant": "tenant-07", "service": "cart"}
	hits := map[string]func(){
		"counter, no labels": func() { r.Counter("c_total", "c", nil).Inc() },
		"counter, one label": func() { r.Counter("c_total", "c", one).Inc() },
		"gauge, two labels":  func() { r.Gauge("g", "g", two).Set(3) },
		"histogram, one label": func() {
			r.Histogram("h_seconds", "h", nil, one)
		},
		"histogram, two labels": func() {
			r.Histogram("h_seconds", "h", nil, two)
		},
	}
	for name, hit := range hits {
		hit() // the miss that registers the child
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", name, n)
		}
	}
	if got := len(r.Snapshot()); got != 7 { // c_total ×2, g, h_seconds_{count,sum} ×2
		t.Fatalf("%d samples, want 7: a hit registered a new child", got)
	}
}

// Every line the recorder's encoder writes must stay json.Marshal's bytes
// plus '\n', HTML escaping included, or every recorded audit digest moves.
func TestFlightLineIsMarshalPlusNewline(t *testing.T) {
	recs := []Record{
		{Type: "header", App: "a<b>&c", SLO: 0.25, Services: []string{`say "hi"`, "x&y"}, Solver: map[string]float64{"lr": 0.05}},
		{Type: "decision", At: 5, Kind: "solve", Rates: map[string]float64{"home": 120.5}, Load: []float64{1, 2.25}, Raw: []float64{900}, Converged: true, Applied: map[string]float64{"<web>": 900}},
		{Type: "chaos", At: 7.5, Detail: "kill <pod> & \"restart\" "},
		{Type: "summary", Summary: map[string]float64{"b": 2, "a": 1e-9}},
	}
	var buf bytes.Buffer
	f := newFlightRecorder(&buf, 0)
	var want []byte
	for i, rec := range recs {
		f.Record(rec)
		rec.Seq = i + 1
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("audit bytes differ from json.Marshal + newline:\n got %s\nwant %s", buf.Bytes(), want)
	}
}

// Recording a record allocates nothing once the memory buffer is at its cap,
// maps included: the encoder reuses its line buffer and the scratch it sorts
// a map's keys in.
func TestFlightRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	f := newFlightRecorder(io.Discard, 4)
	rec := Record{Type: "decision", At: 5, Kind: "hysteresis", Health: "healthy", Total: 120.5,
		Rates: map[string]float64{"home": 80, "cart": 40.5, "checkout": 1e-7},
		Load:  []float64{1, 2.25}, Raw: []float64{900}, Predicted: 0.2, Chaos: []string{"kill"},
		Applied: map[string]float64{"frontend": 900, "cart<db>": 450}}
	for i := 0; i < 8; i++ {
		f.Record(rec)
	}
	if n := testing.AllocsPerRun(100, func() { f.Record(rec) }); n != 0 {
		t.Fatalf("%v allocations per Record, want 0", n)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
}

// A full buffer where records with rates evict records without them, and
// the other way round, still allocates nothing: the maps a decision's
// eviction frees wait in the spare list for the next decision that evicts a
// health record. Strict alternation against an even cap would always evict
// a record of the same type, so this mixes one health record to every two
// decisions.
func TestFlightMixedRecordsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	f := newFlightRecorder(nil, 16)
	rates := map[string]float64{"home": 80, "cart": 40.5}
	health := Record{Type: "health", At: 5, From: "healthy", To: "degraded"}
	decision := Record{Type: "decision", At: 5, Kind: "hysteresis", Rates: rates}
	round := func() {
		f.Record(health)
		f.Record(decision)
		f.Record(decision)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%v allocations per health, decision, decision on a full buffer, want 0", n)
	}
	recs := f.Records()
	if len(recs) != 16 || recs[15].Seq != f.seq || recs[15].Rates["cart"] != 40.5 {
		t.Fatalf("retained %d records, newest %+v", len(recs), recs[15])
	}
}

// Dropped returns how many records were evicted from the memory buffer.
func (f *FlightRecorder) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drop
}
