package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graf/internal/app"
	"graf/internal/sim"
)

// Conservation: every submitted request completes exactly once, across
// random load levels, quota changes and scale-downs mid-flight.
func TestRequestConservationProperty(t *testing.T) {
	f := func(seed int64, rateRaw, scaleRaw uint8) bool {
		rate := 5 + float64(rateRaw%60)
		eng := sim.NewEngine(seed)
		cl := New(eng, app.OnlineBoutique(), DefaultConfig())
		submitted, completed := 0, 0
		for i := 0; i < 150; i++ {
			at := float64(i) / rate
			eng.At(at, func() {
				submitted++
				cl.Submit("cart", func(float64) { completed++ })
			})
		}
		// Random scaling churn while requests are in flight.
		for i := 0; i < 5; i++ {
			at := float64(i) * 150 / rate / 5
			n := 1 + int(scaleRaw)%6
			eng.At(at, func() {
				cl.Deployment("cart").SetReplicas(n)
				cl.Deployment("frontend").SetQuota(float64(100 + 200*n))
			})
		}
		eng.Run()
		return submitted == 150 && completed == 150 && cl.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Error(err)
	}
}

// Every completed request leaves a full trace whose visit counts match the
// API's declared call tree.
func TestTraceCompletenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine(seed)
		a := app.SocialNetwork()
		cl := New(eng, a, DefaultConfig())
		var rec Recorder
		cl.OnTrace(rec.Record)
		const n = 40
		for i := 0; i < n; i++ {
			at := float64(i) / 10
			eng.At(at, func() { cl.Submit("compose-post", nil) })
		}
		eng.Run()
		traces := rec.Traces("compose-post")
		if len(traces) != n {
			return false
		}
		want := a.Visits("compose-post")
		for _, tr := range traces {
			got := Visits(tr)
			for svc, w := range want {
				if float64(got[svc]) != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(78))}); err != nil {
		t.Error(err)
	}
}

// Span timestamps nest correctly: children start after (or at) their
// parent's start and finish before the root finishes.
func TestSpanNesting(t *testing.T) {
	eng := sim.NewEngine(9)
	cl := New(eng, app.Bookinfo(), DefaultConfig())
	var rec Recorder
	cl.OnTrace(rec.Record)
	for i := 0; i < 20; i++ {
		at := float64(i)
		eng.At(at, func() { cl.Submit("productpage", nil) })
	}
	eng.Run()
	for _, tr := range rec.Traces("productpage") {
		var rootStart, rootEnd float64
		for _, s := range tr.Spans {
			if s.Parent == "" {
				rootStart, rootEnd = s.Start, s.End
			}
		}
		for _, s := range tr.Spans {
			if s.Start < rootStart-1e-9 || s.End > rootEnd+1e-9 {
				t.Fatalf("span %s [%v,%v] escapes root [%v,%v]", s.Service, s.Start, s.End, rootStart, rootEnd)
			}
			if s.End < s.Start {
				t.Fatalf("span %s ends before it starts", s.Service)
			}
			if s.Queue < 0 || s.Queue > s.End-s.Start+1e-9 {
				t.Fatalf("span %s queue time %v outside duration", s.Service, s.Queue)
			}
		}
	}
}

// Utilization is always within [0, ~1]: the accounting can briefly read
// slightly above 1 at window edges but must never be wildly off.
func TestUtilizationBounded(t *testing.T) {
	eng := sim.NewEngine(10)
	cl := New(eng, app.RobotShop(), DefaultConfig())
	for i := 0; i < 2000; i++ {
		at := float64(i) / 100 // 100 rps: far above one instance's capacity
		eng.At(at, func() { cl.Submit("catalogue", nil) })
	}
	stop := eng.Ticker(1, 1, func() {
		for _, name := range cl.App.ServiceNames() {
			u := cl.Deployment(name).Utilization(5)
			if u < 0 || u > 1.25 {
				t.Fatalf("%s utilization %v out of bounds at t=%v", name, u, eng.Now())
			}
		}
	})
	eng.RunUntil(20)
	stop()
	eng.Run()
}

// RealizedQuota ≥ desired quota (Eq. 7 rounds up) and equals
// replicas × per-instance quota.
func TestRealizedQuotaProperty(t *testing.T) {
	f := func(qRaw uint16) bool {
		quota := 20 + float64(qRaw%4000)
		eng := sim.NewEngine(3)
		cl := New(eng, app.RobotShop(), DefaultConfig())
		d := cl.Deployment("web")
		d.SetQuota(quota)
		eng.Run()
		rq := d.RealizedQuota()
		// Above one unit, realized ≥ desired; below, realized = clamped desired.
		if quota >= cl.Cfg.CPUUnit {
			return rq >= quota-1e-9
		}
		return rq >= cl.Cfg.MinQuota-1e-9 && rq <= cl.Cfg.CPUUnit+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(79))}); err != nil {
		t.Error(err)
	}
}

func TestPendingInstances(t *testing.T) {
	eng := sim.NewEngine(11)
	cl := New(eng, app.RobotShop(), DefaultConfig())
	cl.Deployment("web").SetReplicas(5)
	if got := cl.PendingInstances(); got != 4 {
		t.Errorf("PendingInstances = %d, want 4", got)
	}
	eng.RunUntil(60)
	if got := cl.PendingInstances(); got != 0 {
		t.Errorf("PendingInstances after startup = %d, want 0", got)
	}
}

// Conservation under fault injection: with instance kills, back-off retries
// and queue timeouts short enough to fire in play, every submitted request
// still completes exactly once (a retried call must never complete twice, a
// crashed one never strand, and a timeout armed for a frame's earlier use
// never drive its current one), in-flight accounting returns to zero, and
// every call frame is back on the free list.
func TestRequestConservationUnderKillsProperty(t *testing.T) {
	failedAttempts, failedCalls, reused := 0, 0, 0
	f := func(seed int64, rateRaw, killRaw, timeoutRaw, retryRaw uint8) bool {
		rate := 10 + float64(rateRaw%50)
		cfg := DefaultConfig()
		// From 20 ms (most queued attempts time out, and their timeouts
		// outlive several uses of the frame) to 8 s (only the wait behind
		// dead capacity does).
		cfg.QueueTimeoutS = []float64{0.02, 0.1, 0.5, 8}[timeoutRaw%4]
		cfg.MaxRetries = int(retryRaw % 4)
		eng := sim.NewEngine(seed)
		cl := New(eng, app.OnlineBoutique(), cfg)
		for _, name := range cl.App.ServiceNames() {
			cl.Deployment(name).SetReplicas(2)
		}
		eng.RunUntil(60)
		const n = 150
		var completed [n]int
		base := eng.Now()
		for i := 0; i < n; i++ {
			i := i
			eng.At(base+float64(i)/rate, func() {
				cl.Submit("cart", func(float64) { completed[i]++ })
			})
		}
		// Kill churn while requests are in flight: single-service kills and
		// correlated crashes.
		for i := 0; i < 4; i++ {
			at := base + float64(i+1)*n/rate/5
			k := 1 + int(killRaw)%2
			eng.At(at, func() {
				cl.KillInstances("cart", k)
				if k > 1 {
					cl.CrashFraction(0.3)
				}
			})
		}
		eng.Run()
		for i, k := range completed {
			if k != 1 {
				t.Logf("request %d completed %d times", i, k)
				return false
			}
		}
		if cl.InFlight() != 0 || cl.e2eAll.Len() != n {
			t.Logf("in flight %d, completions %d", cl.InFlight(), cl.e2eAll.Len())
			return false
		}
		if len(cl.freeFrames) != cl.framesMade || len(cl.freeReqs) == 0 {
			t.Logf("%d of %d frames on the free list", len(cl.freeFrames), cl.framesMade)
			return false
		}
		for _, name := range cl.App.ServiceNames() {
			d := cl.Deployment(name)
			if d.queue.n != 0 {
				t.Logf("%s: %d frames still queued", name, d.queue.n)
				return false
			}
			failedAttempts += d.failedAttempts
		}
		failedCalls += cl.FailedCalls()
		reused += 7*n - cl.framesMade // a "cart" request runs on 7 frames
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(80))}); err != nil {
		t.Error(err)
	}
	if failedAttempts == 0 || failedCalls == 0 || reused <= 0 {
		t.Errorf("fault paths not exercised: %d failed attempts, %d failed calls, %d frame reuses", failedAttempts, failedCalls, reused)
	}
}

// Crashed instances are removed immediately and condemned ones are never
// handed new work: at every instant, no instance in any deployment's slice
// is crashed, in-flight never goes negative, and replica counts recover to
// the quota-implied target after the fault.
func TestKilledInstancesNeverDispatched(t *testing.T) {
	eng := sim.NewEngine(13)
	cl := New(eng, app.RobotShop(), DefaultConfig())
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetReplicas(3)
	}
	eng.RunUntil(60)
	for i := 0; i < 1500; i++ {
		at := 60 + float64(i)/25
		eng.At(at, func() { cl.Submit("catalogue", nil) })
	}
	for i := 0; i < 6; i++ {
		at := 65 + float64(i)*8
		eng.At(at, func() {
			cl.KillInstances("catalogue", 1)
			cl.KillInstances("web", 1)
		})
	}
	stop := eng.Ticker(61, 0.5, func() {
		if cl.InFlight() < 0 {
			t.Fatalf("negative in-flight %d at t=%v", cl.InFlight(), eng.Now())
		}
		for _, name := range cl.App.ServiceNames() {
			d := cl.Deployment(name)
			for _, in := range d.instances {
				if in.crashed {
					t.Fatalf("%s still lists crashed instance %d at t=%v", name, in.id, eng.Now())
				}
				if in.condemned && !in.busy {
					t.Fatalf("%s keeps idle condemned instance %d at t=%v", name, in.id, eng.Now())
				}
			}
		}
	})
	eng.RunUntil(125)
	stop()
	eng.Run()
	if cl.KilledTotal() == 0 {
		t.Fatal("no kills happened")
	}
	if cl.InFlight() != 0 {
		t.Errorf("%d requests stranded after drain", cl.InFlight())
	}
	for _, name := range cl.App.ServiceNames() {
		d := cl.Deployment(name)
		if d.ReadyReplicas() == 0 {
			t.Errorf("%s never recovered after kills", name)
		}
	}
}

// Telemetry windows stay monotone through suppression faults: the newest
// observation timestamp never decreases and never runs ahead of the clock,
// even as blackholes start and end.
func TestTelemetryMonotoneUnderSuppression(t *testing.T) {
	eng := sim.NewEngine(14)
	cl := New(eng, app.RobotShop(), DefaultConfig())
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetReplicas(3)
	}
	eng.RunUntil(30)
	for i := 0; i < 2400; i++ {
		at := 30 + float64(i)/20
		eng.At(at, func() { cl.Submit("catalogue", nil) })
	}
	eng.At(50, func() { cl.SuppressFrontendTelemetry(20) })
	eng.At(55, func() { cl.Deployment("web").SuppressTelemetry(15) })
	eng.At(90, func() { cl.SetArrivalSampling(0.2) })
	eng.At(110, func() { cl.SetArrivalSampling(1) })
	prevFront, prevDep := -1.0, -1.0
	stop := eng.Ticker(31, 1, func() {
		now := eng.Now()
		if at, ok := cl.LastArrivalAt(); ok {
			if at < prevFront || at > now+1e-9 {
				t.Fatalf("frontend LastArrivalAt went %v → %v at t=%v", prevFront, at, now)
			}
			prevFront = at
		}
		if at, ok := cl.LastDeploymentTelemetryAt(); ok {
			if at < prevDep || at > now+1e-9 {
				t.Fatalf("deployment telemetry went %v → %v at t=%v", prevDep, at, now)
			}
			prevDep = at
		}
	})
	eng.RunUntil(150)
	stop()
	eng.Run()
	if prevFront < 0 || prevDep < 0 {
		t.Fatal("no telemetry observed at all")
	}
}

func TestCPUPerRequestMS(t *testing.T) {
	eng := sim.NewEngine(12)
	cl := New(eng, app.RobotShop(), DefaultConfig())
	for i := 0; i < 100; i++ {
		at := float64(i) / 5
		eng.At(at, func() { cl.Submit("catalogue", nil) })
	}
	eng.Run()
	// catalogue WorkMS = 11 cpu-ms; lognormal mean preserved.
	got := cl.Deployment("catalogue").CPUPerRequestMS(eng.Now())
	if got < 7 || got > 16 {
		t.Errorf("CPUPerRequestMS = %v, want ≈11", got)
	}
	if cl.Deployment("web").CPUPerRequestMS(0.0001) != 0 {
		t.Error("empty window must return 0")
	}
}
