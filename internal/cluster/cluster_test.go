package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graf/internal/app"
	"graf/internal/metrics"
	"graf/internal/sim"
)

// twoSvc is a minimal frontend→backend app for focused tests.
func twoSvc() *app.App {
	return app.New("two",
		[]app.Service{
			{Name: "front", WorkMS: 2, CV: 0, BaseMS: 0},
			{Name: "back", WorkMS: 4, CV: 0, BaseMS: 0},
		},
		[]app.API{{
			Name: "get", Mix: 1,
			Root: &app.Call{Service: "front", Stages: [][]*app.Call{{{Service: "back"}}}},
		}},
	)
}

func newTestCluster(a *app.App) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine(7)
	return eng, New(eng, a, DefaultConfig())
}

func TestSubmitCompletesWithExpectedLatency(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	// One instance each at CPUUnit=250mc: front 2ms*4=8ms, back 4ms*4=16ms.
	var lat float64
	c.Submit("get", func(l float64) { lat = l })
	eng.Run()
	want := 0.008 + 0.016
	if math.Abs(lat-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", lat, want)
	}
}

func TestQuotaScalesServiceTime(t *testing.T) {
	a := twoSvc()
	eng, c := newTestCluster(a)
	c.Deployment("front").SetQuota(1000)
	c.Deployment("back").SetQuota(1000)
	eng.RunUntil(100) // let new instances start
	var lat float64
	c.Submit("get", func(l float64) { lat = l })
	eng.Run()
	// 1000mc over ceil(1000/250)=4 instances → 250mc each. Same as before:
	// per-instance quota unchanged, so latency for a single request is the
	// same; but capacity is 4×.
	if c.Deployment("front").ReadyReplicas() != 4 {
		t.Fatalf("front replicas = %d, want 4", c.Deployment("front").ReadyReplicas())
	}
	want := 0.008 + 0.016
	if math.Abs(lat-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", lat, want)
	}
}

func TestVerticalQuotaBelowUnit(t *testing.T) {
	a := twoSvc()
	eng, c := newTestCluster(a)
	c.Deployment("back").SetQuota(125) // one instance at 125mc → 4ms*8 = 32ms
	var lat float64
	c.Submit("get", func(l float64) { lat = l })
	eng.Run()
	want := 0.008 + 0.032
	if math.Abs(lat-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", lat, want)
	}
}

func TestInstanceCreationTiming(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	d := c.Deployment("back")
	d.SetReplicas(17) // create 16 more
	cfg := DefaultConfig()
	wantLast := cfg.StartupBaseS + 16*cfg.StartupSlopeS
	eng.RunUntil(wantLast - 0.01)
	if got := d.ReadyReplicas(); got != 16 {
		t.Errorf("just before batch completion: %d ready, want 16", got)
	}
	eng.RunUntil(wantLast + 0.01)
	if got := d.ReadyReplicas(); got != 17 {
		t.Errorf("after batch completion: %d ready, want 17", got)
	}
	// Paper Fig 1: one instance ≈5.5 s, batch of 16 ≈45.6 s.
	if one := cfg.StartupBaseS + cfg.StartupSlopeS; one < 4.5 || one > 6.5 {
		t.Errorf("single-instance startup %.2fs out of Fig 1 band", one)
	}
	if wantLast < 40 || wantLast > 50 {
		t.Errorf("batch-of-16 startup %.2fs out of Fig 1 band", wantLast)
	}
}

func TestScaleDownCondemnsIdleFirst(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	d := c.Deployment("back")
	d.SetReplicas(4)
	eng.RunUntil(60)
	if d.ReadyReplicas() != 4 {
		t.Fatalf("ready = %d, want 4", d.ReadyReplicas())
	}
	d.SetReplicas(1)
	if d.Replicas() != 1 {
		t.Errorf("after scale-down Replicas = %d, want 1", d.Replicas())
	}
	// Still serves requests.
	done := false
	c.Submit("get", func(float64) { done = true })
	eng.Run()
	if !done {
		t.Error("request did not complete after scale-down")
	}
}

func TestScaleDownBusyInstanceFinishesJob(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	d := c.Deployment("back")
	completed := 0
	c.Submit("get", func(float64) { completed++ })
	// Let the request reach 'back' and start service, then condemn.
	eng.RunUntil(0.009)
	d.SetReplicas(1) // no-op at 1; force condemnation by scaling 1→1 is no-op,
	// so scale up then immediately down while busy:
	d.SetReplicas(2)
	d.SetReplicas(1)
	eng.Run()
	if completed != 1 {
		t.Errorf("completed = %d, want 1", completed)
	}
}

// A deployment reuses the instances it retires: condemned while starting,
// condemned once ready, crashed (one mid-request) and replaced. Driven
// through the same scale-up/scale-down cycle twice under a steady load, the
// second cycle allocates nothing: no instance, ready callback or event.
func TestScalingCycleReusesInstances(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	c.DeclareLookback(AllSignals, 30)
	d := c.Deployment("back")
	unit := c.Cfg.CPUUnit
	submit := func() { c.Submit("get", nil) }
	created, crashedBusy := 0, 0
	cycle := func() {
		start := eng.Now()
		for i := 0; i < 120*50; i++ {
			eng.At(start+float64(i)/50, submit)
		}
		before, lost := c.CreatedTotal(), d.failedAttempts
		d.SetQuota(8 * unit)
		eng.RunUntil(start + 15) // four of the seven are ready
		d.SetQuota(3 * unit)
		eng.RunUntil(start + 30)
		d.KillInstances(2) // and starts two replacements
		eng.RunUntil(start + 90)
		d.SetQuota(unit)
		eng.RunUntil(start + 120)
		created += c.CreatedTotal() - before
		crashedBusy += d.failedAttempts - lost
	}
	cycle()
	if allocs := testing.AllocsPerRun(1, cycle); allocs != 0 {
		t.Errorf("a repeated scaling cycle allocated %v objects, want 0", allocs)
	}
	if created != 3*(7+2) || crashedBusy != 3 {
		t.Fatalf("three cycles created %d instances and crashed %d requests, want 27 and 3", created, crashedBusy)
	}
	if got := d.ReadyReplicas(); got != 1 || len(d.instances) != 1 {
		t.Errorf("%d ready of %d listed after the last cycle, want 1 of 1", got, len(d.instances))
	}
}

func TestQueueingLatencyGrowsWithLoad(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	// back: 16ms service at 250mc, one instance → capacity 62.5 rps.
	// Offer 80 rps (overload) then compare with 4 instances.
	for i := 0; i < 200; i++ {
		at := float64(i) / 80
		eng.At(at, func() { c.Submit("get", nil) })
	}
	eng.Run()
	p99Hot := c.E2ELatencyQuantile(0.99, eng.Now())

	eng2 := sim.NewEngine(7)
	c2 := New(eng2, twoSvc(), DefaultConfig())
	c2.Deployment("back").SetReplicas(4)
	eng2.RunUntil(60)
	for i := 0; i < 200; i++ {
		at := 60 + float64(i)/80
		eng2.At(at, func() { c2.Submit("get", nil) })
	}
	eng2.Run()
	p99Cold := c2.E2ELatencyQuantile(0.99, eng2.Now())
	if p99Hot <= p99Cold {
		t.Errorf("p99 near saturation (%v) should exceed p99 with 4 instances (%v)", p99Hot, p99Cold)
	}
}

func TestTraceStructure(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	var rec Recorder
	c.OnTrace(rec.Record)
	c.Submit("get", nil)
	eng.Run()
	trs := rec.Traces("get")
	if len(trs) != 1 {
		t.Fatalf("collected %d traces, want 1", len(trs))
	}
	tr := trs[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(tr.Spans))
	}
	v := Visits(tr)
	if v["front"] != 1 || v["back"] != 1 {
		t.Errorf("visits = %v", v)
	}
	for _, s := range tr.Spans {
		if s.End <= s.Start {
			t.Errorf("span %+v: want a positive duration", s)
		}
		if s.Service == "back" && s.Parent != "front" {
			t.Errorf("span %+v: want back called by front", s)
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	// back: WorkMS=4 cpu-ms/req at 30 rps → 120 cpu-ms/s = 120 mc used of
	// 250 mc quota → utilization ≈ 0.48.
	for i := 0; i < 600; i++ {
		at := float64(i) / 30
		eng.At(at, func() { c.Submit("get", nil) })
	}
	eng.Run()
	u := c.Deployment("back").Utilization(eng.Now())
	if u < 0.40 || u > 0.56 {
		t.Errorf("utilization = %v, want ≈0.48", u)
	}
}

func TestArrivalRatePerception(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	for i := 0; i < 100; i++ {
		at := float64(i) / 10 // 10 rps for 10s
		eng.At(at, func() { c.Submit("get", nil) })
	}
	eng.Run()
	rate := c.Deployment("front").ArrivalRateAt(10, 10)
	if rate < 9 || rate > 11 {
		t.Errorf("front arrival rate = %v, want ≈10", rate)
	}
}

func TestParallelStagesUseMax(t *testing.T) {
	// productpage calls details (fast) and reviews→ratings (slow) in
	// parallel: e2e = pp + max(details, reviews+ratings).
	a := app.New("par",
		[]app.Service{
			{Name: "pp", WorkMS: 1, CV: 0},
			{Name: "fast", WorkMS: 1, CV: 0},
			{Name: "slow", WorkMS: 10, CV: 0},
		},
		[]app.API{{
			Name: "q", Mix: 1,
			Root: &app.Call{Service: "pp", Stages: [][]*app.Call{{
				{Service: "fast"}, {Service: "slow"},
			}}},
		}},
	)
	eng := sim.NewEngine(3)
	c := New(eng, a, DefaultConfig())
	var lat float64
	c.Submit("q", func(l float64) { lat = l })
	eng.Run()
	// At 250mc: pp 4ms, fast 4ms, slow 40ms → 4 + max(4,40) = 44ms.
	if math.Abs(lat-0.044) > 1e-9 {
		t.Errorf("latency = %v, want 0.044", lat)
	}
}

func TestSequentialRepetitions(t *testing.T) {
	a := app.New("rep",
		[]app.Service{
			{Name: "f", WorkMS: 1, CV: 0},
			{Name: "b", WorkMS: 1, CV: 0},
		},
		[]app.API{{
			Name: "q", Mix: 1,
			Root: &app.Call{Service: "f", Stages: [][]*app.Call{{
				{Service: "b", Count: 3},
			}}},
		}},
	)
	eng := sim.NewEngine(3)
	c := New(eng, a, DefaultConfig())
	var rec Recorder
	c.OnTrace(rec.Record)
	var lat float64
	c.Submit("q", func(l float64) { lat = l })
	eng.Run()
	// 4ms + 3×4ms = 16ms.
	if math.Abs(lat-0.016) > 1e-9 {
		t.Errorf("latency = %v, want 0.016", lat)
	}
	if v := Visits(rec.Traces("q")[0]); v["b"] != 3 {
		t.Errorf("b visited %d times, want 3", v["b"])
	}
}

func TestApplyQuotasAndTotals(t *testing.T) {
	eng, c := newTestCluster(twoSvc())
	c.ApplyQuotas(map[string]float64{"front": 500, "back": 750})
	if q := c.Quotas(); q["front"] != 500 || q["back"] != 750 {
		t.Errorf("Quotas = %v, want front 500 and back 750", q)
	}
	eng.RunUntil(60)
	if got := c.TotalInstances(); got != 2+3 {
		t.Errorf("TotalInstances = %d, want 5", got)
	}
	q := c.Quotas()
	if q["front"] != 500 || q["back"] != 750 {
		t.Errorf("Quotas = %v", q)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		eng := sim.NewEngine(11)
		a := app.OnlineBoutique()
		c := New(eng, a, DefaultConfig())
		sum := 0.0
		for i := 0; i < 200; i++ {
			at := float64(i) / 20
			eng.At(at, func() { c.Submit("cart", func(l float64) { sum += l }) })
		}
		eng.Run()
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %v vs %v", a, b)
	}
}

func TestBoutiqueEndToEnd(t *testing.T) {
	eng := sim.NewEngine(5)
	a := app.OnlineBoutique()
	c := New(eng, a, DefaultConfig())
	done := 0
	for i := 0; i < 100; i++ {
		at := float64(i) / 10
		eng.At(at, func() { c.Submit("cart", func(float64) { done++ }) })
	}
	eng.Run()
	if done != 100 {
		t.Fatalf("completed %d/100 requests", done)
	}
	p := c.Traces().VisitProfile("cart", 0.9, nil)
	if p["currency"] != 2 {
		t.Errorf("traced currency visits = %v, want 2", p["currency"])
	}
}

// The cluster keeps, per signal, the longest look-back declared for it: a
// declared signal holds about one look-back and answers as a cluster that kept
// everything does; an undeclared one holds nothing, still counts and dates its
// observations, and panics on any read, naming the signal; a cluster nobody
// declared on keeps everything.
func TestDeclaredLookbackBoundsEveryWindow(t *testing.T) {
	run := func(declare func(*Cluster)) *Cluster {
		eng, c := newTestCluster(twoSvc())
		declare(c)
		for i := 0; i < 200*40; i++ { // 40 req/s for 200 s; one back instance serves 62
			eng.At(float64(i)/40, func() { c.Submit("get", nil) })
		}
		eng.Run()
		return c
	}
	all := run(func(*Cluster) {})
	bounded := run(func(c *Cluster) {
		c.DeclareLookback(APIRates, 5)
		c.DeclareLookback(E2ELatency|CPU, 20)
		c.DeclareLookback(CPU, 10)
	})
	back, allBack := bounded.Deployment("back"), all.Deployment("back")
	held := func(name string, w *metrics.Window, lookback float64) {
		t.Helper()
		if w.Len() != 8000 || w.Retained() > int(lookback)*40+2*256 || w.Retained() < int(lookback)*40 {
			t.Errorf("%s holds %d of %d observations under a %v s look-back at 40 req/s", name, w.Retained(), w.Len(), lookback)
		}
	}
	held("e2e", bounded.e2eAll, 20)
	held("cpuWork", back.cpuWork, 20)
	held("API arrivals", bounded.apis["get"].arrivals, 5)
	if got, want := bounded.E2ELatencyQuantile(0.99, 20), all.E2ELatencyQuantile(0.99, 20); got != want {
		t.Errorf("p99 over the declared 20 s = %v, %v on a cluster that kept everything", got, want)
	}
	if got, want := back.Utilization(20), allBack.Utilization(20); got != want {
		t.Errorf("utilization over the declared 20 s = %v, want %v", got, want)
	}
	if got, want := back.CPUPerRequestMS(20), allBack.CPUPerRequestMS(20); got != want {
		t.Errorf("CPU per request over the declared 20 s = %v, want %v", got, want)
	}
	if got, want := bounded.APIArrivalRate("get", 5), all.APIArrivalRate("get", 5); got != want {
		t.Errorf("API rate over the declared 5 s = %v, want %v", got, want)
	}
	if got := allBack.ArrivalRateAt(100, 100); got < 39 || got > 41 {
		t.Errorf("undeclared cluster: arrival rate over the first 100 s = %v, want ≈40", got)
	}
	if got, want := len(back.readySeries.T), len(allBack.readySeries.T); got > want {
		t.Errorf("ready series holds %d points, %d on a cluster that kept everything", got, want)
	}

	panics := func(read func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		read()
		return
	}
	for _, w := range []struct {
		name       string
		got, whole *metrics.Window
	}{{"self-latency", back.selfLat, allBack.selfLat}, {"service arrival", back.arrivals, allBack.arrivals}} {
		at, ok := w.got.LastAt()
		if wantAt, _ := w.whole.LastAt(); w.got.Retained() != 0 || w.got.Len() != 8000 || !ok || at != wantAt {
			t.Errorf("undeclared %s window: retains %d, Len %d, LastAt %v %v; want 0, 8000, %v", w.name, w.got.Retained(), w.got.Len(), at, ok, wantAt)
		}
	}
	if n := bounded.Retained(ServiceRates | SelfLatency); n != 0 {
		t.Errorf("Retained reports %d observations of the undeclared signals", n)
	}
	at, ok := bounded.LastDeploymentTelemetryAt()
	if wantAt, wantOK := all.LastDeploymentTelemetryAt(); at != wantAt || ok != wantOK {
		t.Errorf("LastDeploymentTelemetryAt = %v %v, want %v %v", at, ok, wantAt, wantOK)
	}
	now := bounded.Eng.Now()
	if msg := panics(func() { back.SelfLatencyQuantile(0.5, 1) }); !strings.Contains(msg, "service self-latency") {
		t.Errorf("reading undeclared self latency: recovered %q, want a panic naming the signal", msg)
	}
	if msg := panics(func() { back.ArrivalRateAt(now+10, 5) }); !strings.Contains(msg, "service arrival") {
		t.Errorf("reading undeclared service arrivals after their last observation: recovered %q, want a panic naming the signal", msg)
	}
	if msg := panics(func() { bounded.APIArrivalRate("get", 60) }); !strings.Contains(msg, "look-back of 5 s") || !strings.Contains(msg, "API arrival") {
		t.Errorf("reading API arrivals 60 s back: recovered %q, want a panic naming the 5 s look-back", msg)
	}

	// CPU undeclared: the ready series keeps its newest point only.
	eng, c := newTestCluster(twoSvc())
	c.DeclareLookback(E2ELatency, 10)
	for i := 1; i <= 50; i++ {
		eng.At(float64(i), func() { c.Deployment("back").SetReplicas(1 + i%3) })
	}
	eng.RunUntil(120)
	if n := len(c.Deployment("back").readySeries.T); n != 1 {
		t.Errorf("ready series holds %d points with CPU undeclared, want 1", n)
	}
}
