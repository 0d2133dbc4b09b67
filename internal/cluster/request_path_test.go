package cluster_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/trace"
	"graf/internal/workload"
)

// simulationDigest runs 60 simulated seconds of a — an open-loop 40→160
// req/s surge at t=20, a correlated crash of half of every deployment at
// t=30 and a scale-up wave at t=40 — and hashes everything the simulation
// produced: every retained span, every end-to-end latency sample, and the
// next draw of the engine's random source (which pins the number and order
// of all draws before it).
func simulationDigest(a *app.App, cfg cluster.Config) uint64 {
	eng := sim.NewEngine(42)
	cl := cluster.New(eng, a, cfg)
	rec := &cluster.Recorder{Cap: cfg.TraceCap} // what the collector's rings retain, spans and all
	cl.OnTrace(rec.Record)
	for _, name := range a.ServiceNames() {
		cl.Deployment(name).SetQuota(750)
	}
	gen := workload.NewOpenLoop(cl, workload.StepRate(40, 160, 20))
	gen.Start()
	eng.At(30, func() { cl.CrashFraction(0.5) })
	eng.At(40, func() {
		for _, name := range a.ServiceNames() {
			cl.Deployment(name).SetQuota(1500)
		}
	})
	eng.RunUntil(60)
	gen.Stop()

	h := fnv.New64a()
	var b [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, api := range rec.APIs() {
		str(api)
		for _, tr := range rec.Traces(api) {
			f64(float64(tr.Errors))
			for _, s := range tr.Spans {
				str(s.Service)
				str(s.Parent)
				f64(s.Start)
				f64(s.End)
				f64(s.Queue)
			}
		}
	}
	for _, lat := range cl.E2EWindow().Since(0, math.Inf(1)) {
		f64(lat)
	}
	f64(float64(cl.FailedCalls()))
	f64(float64(eng.Rand().Int63()))
	return h.Sum64()
}

// The constants below were recorded at commit 7a99e03, before request
// execution moved from per-step closures to pooled call frames, the event
// queue to a value heap, the collector to a ring and the telemetry windows
// to chunks. They change only if the simulation itself changes: a different
// order of Eng.At calls or Rand draws, a different span or latency sample.
func TestSimulationDigestMatchesClosureImplementation(t *testing.T) {
	boutique := cluster.DefaultConfig()
	boutique.TraceCap = 1000 // the "cart" and "product" rings wrap
	social := cluster.DefaultConfig()
	social.QueueTimeoutS = 1 // the post-crash backlog times out and retries
	for _, tc := range []struct {
		name string
		app  *app.App
		cfg  cluster.Config
		want uint64
	}{
		{"online-boutique", app.OnlineBoutique(), boutique, 0x14c04bcfdb433ee5},
		{"social-network", app.SocialNetwork(), social, 0x1b761cd45b375a10},
	} {
		if got := simulationDigest(tc.app, tc.cfg); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// Once the free lists, the event heap and the collector rings have reached
// their steady size and the telemetry windows hold one look-back, a simulated
// request allocates nothing: no call frame, closure, event, trace, span array,
// visit vector or window chunk. Every signal is kept, over a controller's longest look-back, 3 × 10 s.
func TestSteadyStateRequestAllocations(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.TraceCap = 256 // every API's ring is full after the warm-up
	eng := sim.NewEngine(7)
	cl := cluster.New(eng, app.OnlineBoutique(), cfg)
	cl.DeclareLookback(cluster.AllSignals, 30)
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetQuota(1500)
	}
	eng.RunUntil(60)
	gen := workload.NewOpenLoop(cl, workload.ConstRate(100))
	gen.Start()
	eng.RunUntil(120)

	var before, after runtime.MemStats
	completed := cl.E2EWindow().Len()
	runtime.ReadMemStats(&before)
	const runs = 5
	objects := testing.AllocsPerRun(runs-1, func() { eng.RunUntil(eng.Now() + 10) }) // runs once more to warm up
	runtime.ReadMemStats(&after)
	gen.Stop()

	perRun := float64(cl.E2EWindow().Len()-completed) / runs
	if perRun < 900 {
		t.Fatalf("only %.0f requests completed per 10 simulated seconds at 100 req/s", perRun)
	}
	if perReq := objects / perRun; perReq > 0.01 {
		t.Errorf("%.3f heap objects per request, want ≤ 0.01", perReq)
	}
	if perReq := float64(after.TotalAlloc-before.TotalAlloc) / runs / perRun; perReq > 16 {
		t.Errorf("%.0f bytes allocated per request, want ≤ 16", perReq)
	}
	t.Logf("%.0f requests per run: %.4f objects, %.1f bytes per request", perRun, objects/perRun, float64(after.TotalAlloc-before.TotalAlloc)/runs/perRun)
}

// observation is what one run of observedRun saw.
type observation struct {
	e2e                  []float64 // the end-to-end window's contents
	failedCalls, dropped int
	nextDraw             int64
	profiles             []string           // every VisitProfile read, in order
	before, after        map[string]float64 // the first API's p90 profile at t=30 and t=60
	recorderMismatch     string             // the first profile that differs from the Recorder's recount
}

// nearestRank is VisitProfile recomputed from whole traces: per service, the
// traces' visit counts, zero-padded, sorted, read at the nearest rank.
func nearestRank(traces []trace.Trace, q float64) map[string]float64 {
	if len(traces) == 0 {
		return nil
	}
	counts := map[string][]int{}
	for _, tr := range traces {
		for svc, n := range cluster.Visits(tr) {
			counts[svc] = append(counts[svc], n)
		}
	}
	rank := min(max(int(math.Ceil(q*float64(len(traces)))), 1), len(traces))
	out := make(map[string]float64, len(counts))
	for svc, ns := range counts {
		for len(ns) < len(traces) {
			ns = append(ns, 0)
		}
		slices.Sort(ns)
		out[svc] = float64(ns[rank-1])
	}
	return out
}

// observedRun drives a for 60 simulated seconds through every fault the call
// layer handles — half of every deployment crashed at t=20, queue timeouts and
// the retries they cause, a tenth of the traces dropped, half the frontend
// arrivals sampled away — and from t=35 an outage of outage, which never has a
// ready instance again, so every call to it fails and the traces that visited
// it age out of the small rings. Every 5 s it reads each API's VisitProfile;
// with observe it attaches a Recorder as deep as the rings and recounts every
// profile from the Recorder's traces.
func observedRun(a *app.App, seed int64, outage string, observe bool) observation {
	cfg := cluster.DefaultConfig()
	cfg.TraceCap = 64
	cfg.QueueTimeoutS = 0.5
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, a, cfg)
	var rec *cluster.Recorder
	if observe {
		rec = &cluster.Recorder{Cap: cfg.TraceCap}
		cl.OnTrace(rec.Record)
	}
	for _, name := range a.ServiceNames() {
		cl.Deployment(name).SetQuota(750)
	}
	cl.SetTraceDrop(0.1)
	cl.SetArrivalSampling(0.5)
	gen := workload.NewOpenLoop(cl, workload.StepRate(40, 120, 15))
	gen.Start()
	eng.At(20, func() { cl.CrashFraction(0.5) })
	for at := 35.0; at < 60; at++ {
		eng.At(at, func() { cl.KillInstances(outage, 1000) })
	}
	var o observation
	for at := 5.0; at <= 60; at += 5 {
		eng.At(at, func() {
			for _, api := range a.APIs {
				for _, q := range []float64{0.5, 0.9, 0.99} {
					p := cl.Traces().VisitProfile(api.Name, q, nil)
					o.profiles = append(o.profiles, fmt.Sprintf("t=%v %s q=%v %v", eng.Now(), api.Name, q, p))
					if rec != nil && o.recorderMismatch == "" {
						if want := nearestRank(rec.Traces(api.Name), q); !reflect.DeepEqual(p, want) {
							o.recorderMismatch = fmt.Sprintf("t=%v %s q=%v: VisitProfile %v, recount of the recorded traces %v", eng.Now(), api.Name, q, p, want)
						}
					}
					if q == 0.9 && api.Name == a.APIs[0].Name {
						switch eng.Now() {
						case 30:
							o.before = p
						case 60:
							o.after = p
						}
					}
				}
			}
		})
	}
	eng.RunUntil(60)
	gen.Stop()
	o.e2e = cl.E2EWindow().Since(0, math.Inf(1))
	o.failedCalls, o.dropped = cl.FailedCalls(), cl.DroppedTraces()
	o.nextDraw = eng.Rand().Int63()
	return o
}

// An observer sees whole traces, and only a request submitted while it is set
// builds spans; a cluster nobody observes counts visits and nothing else. The
// two must simulate the same thing: the same latencies, failures, dropped
// traces and random draws, and a collector whose profiles are the nearest-rank
// profiles of the traces the observer kept — through crashes, retries, queue
// timeouts, trace drops, arrival sampling, rings that wrap, and a service that
// drops out of the profile once its traces are evicted.
func TestObserverDoesNotChangeTheSimulation(t *testing.T) {
	for _, tc := range []struct {
		app    *app.App
		outage string
	}{
		{app.OnlineBoutique(), "shipping"},
		{app.SocialNetwork(), "media"},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%s/seed=%d", tc.app.Name, seed)
			plain, seen := observedRun(tc.app, seed, tc.outage, false), observedRun(tc.app, seed, tc.outage, true)
			if seen.recorderMismatch != "" {
				t.Errorf("%s: %s", name, seen.recorderMismatch)
			}
			if !slices.Equal(plain.e2e, seen.e2e) {
				t.Errorf("%s: %d end-to-end samples unobserved, %d observed, or their values differ", name, len(plain.e2e), len(seen.e2e))
			}
			if plain.failedCalls != seen.failedCalls || plain.dropped != seen.dropped || plain.nextDraw != seen.nextDraw {
				t.Errorf("%s: failed calls %d/%d, dropped traces %d/%d, next draw %d/%d unobserved/observed",
					name, plain.failedCalls, seen.failedCalls, plain.dropped, seen.dropped, plain.nextDraw, seen.nextDraw)
			}
			for i := range plain.profiles {
				if plain.profiles[i] != seen.profiles[i] {
					t.Errorf("%s: unobserved %s, observed %s", name, plain.profiles[i], seen.profiles[i])
					break
				}
			}
			if plain.failedCalls == 0 || plain.dropped == 0 {
				t.Errorf("%s: %d failed calls and %d dropped traces, want both > 0", name, plain.failedCalls, plain.dropped)
			}
			if _, ok := plain.before[tc.outage]; !ok {
				t.Errorf("%s: p90 profile at t=30 %v lacks %s", name, plain.before, tc.outage)
			}
			if _, ok := plain.after[tc.outage]; ok {
				t.Errorf("%s: p90 profile at t=60 %v still has %s, whose calls all fail", name, plain.after, tc.outage)
			}
		}
	}
}

// An observer registered mid-run sees exactly the requests submitted after
// it, each whole: the requests already in flight built no spans, and it never
// sees them half-built — not even those whose recycled records still hold the
// spans of an earlier observer's trace.
func TestObserverAttachedMidRunSeesWholeTraces(t *testing.T) {
	a := app.SocialNetwork()
	eng := sim.NewEngine(3)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	var first, second cluster.Recorder
	submitted, inFlight := 0, 0
	for i := 0; i < 400; i++ {
		eng.At(float64(i)/40, func() {
			switch i {
			case 100:
				cl.OnTrace(first.Record)
			case 200:
				cl.OnTrace(nil)
			case 300:
				inFlight = cl.InFlight()
				cl.OnTrace(second.Record)
			}
			n := 1
			if i == 150 {
				n = 20 // a burst, so that every record on the free list holds spans after it
			}
			for range n {
				if i >= 300 {
					submitted++
				}
				cl.Submit("compose-post", nil)
			}
		})
	}
	eng.Run()
	if inFlight == 0 || len(first.Traces("compose-post")) == 0 {
		t.Fatalf("%d requests in flight when the second observer was registered, %d traces seen by the first; want both > 0", inFlight, len(first.Traces("compose-post")))
	}
	if n := len(second.Traces("compose-post")); n != submitted {
		t.Fatalf("observer saw %d traces, want the %d submitted after it was registered", n, submitted)
	}
	want := a.Visits("compose-post")
	for _, tr := range append(first.Traces("compose-post"), second.Traces("compose-post")...) {
		got := map[string]float64{}
		for svc, n := range cluster.Visits(tr) {
			got[svc] = float64(n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d visits %v, want %v", tr.ID, got, want)
		}
	}
}
