package cluster_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
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
	rec := &trace.Recorder{Cap: cfg.TraceCap} // what the collector's rings retain, spans and all
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
	for _, api := range cl.Traces().APIs() {
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
	completed := cl.Traces().Total()
	runtime.ReadMemStats(&before)
	const runs = 5
	objects := testing.AllocsPerRun(runs-1, func() { eng.RunUntil(eng.Now() + 10) }) // runs once more to warm up
	runtime.ReadMemStats(&after)
	gen.Stop()

	perRun := float64(cl.Traces().Total()-completed) / runs
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
