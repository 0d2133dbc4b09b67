package chaos

import (
	"fmt"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/trace"
	"graf/internal/workload"
)

// scripted is what one scripted run leaves: the cluster after the horizon,
// the injector's flight records (one per fired fault, in firing order) and
// the number of traces that reached the collector.
type scripted struct {
	cl     *cluster.Cluster
	fired  []obs.Record
	traced int
}

// scriptedRun plays one scenario against a loaded Online Boutique cluster
// and drains it.
func scriptedRun(t *testing.T, seed int64, sc []Event, horizon float64) scripted {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := cluster.DefaultConfig()
	cfg.QueueTimeoutS = 10
	cl := cluster.New(eng, app.OnlineBoutique(), cfg)
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetReplicas(3)
	}
	eng.RunUntil(60) // let replicas come up
	out := scripted{cl: cl}
	cl.OnTrace(func(*trace.Trace) { out.traced++ })
	g := workload.NewOpenLoop(cl, workload.ConstRate(40))
	g.Start()
	tel := obs.New(obs.Options{})
	inj := New(cl)
	inj.Obs = obs.NewChaosObs(tel)
	inj.Play(sc)
	eng.RunUntil(60 + horizon)
	g.Stop()
	eng.Run() // drain
	out.fired = tel.Flight.Records()
	return out
}

func TestScenarioDeterministic(t *testing.T) {
	sc := []Event{
		Kill(10, "cart", 2),
		Crash(20, 0.34),
		SampleArrivals(30, 0.1, 20),
		DropTraces(30, 0.5, 20),
		Contend(40, "productcatalog", 2.0, 15),
	}
	run := func() string {
		r := scriptedRun(t, 7, sc, 120)
		s := fmt.Sprintf("killed=%d failedRequests=%d traced=%d\n", r.cl.KilledTotal(), r.cl.FailedRequests(), r.traced)
		for _, f := range r.fired {
			s += fmt.Sprintf("t=%.1f %s %s\n", f.At, f.Kind, f.Detail)
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different chaos outcome:\n%s\nvs\n%s", a, b)
	}
}

func TestKillsReplaceAndDrain(t *testing.T) {
	sc := []Event{
		Kill(5, "cart", 2),
		Crash(15, 0.5),
	}
	r := scriptedRun(t, 3, sc, 150)
	cl := r.cl
	if cl.KilledTotal() == 0 {
		t.Fatal("no instances killed")
	}
	if len(r.fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(r.fired))
	}
	if cl.InFlight() != 0 {
		t.Errorf("%d requests stranded in flight after drain", cl.InFlight())
	}
	// Replacements restored the desired capacity.
	for _, name := range cl.App.ServiceNames() {
		d := cl.Deployment(name)
		if d.ReadyReplicas() < 1 {
			t.Errorf("%s has no ready replicas after recovery", name)
		}
	}
}

func TestBlackholeWindowsReadEmpty(t *testing.T) {
	eng := sim.NewEngine(5)
	cl := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetReplicas(4)
	}
	eng.RunUntil(60)
	g := workload.NewOpenLoop(cl, workload.ConstRate(30))
	g.Start()
	eng.RunUntil(90)
	pre := cl.APIArrivalRate("catalogue", 10)
	if pre <= 0 {
		t.Fatal("no arrival signal before the blackhole")
	}

	inj := New(cl)
	inj.Play([]Event{
		BlackholeFrontend(0.5, 30),
		{At: 0.5, Kind: telemetryBlackhole, Service: "web", Duration: 30},
	})
	eng.RunUntil(110)
	if r := cl.APIArrivalRate("catalogue", 10); r != 0 {
		t.Errorf("frontend arrival rate %v during blackhole, want 0", r)
	}
	if r := cl.Deployment("web").ArrivalRate(10); r != 0 {
		t.Errorf("web arrival rate %v during deployment blackhole, want 0", r)
	}
	eng.RunUntil(140)
	if r := cl.APIArrivalRate("catalogue", 10); r <= 0 {
		t.Error("arrival signal did not recover after the blackhole window")
	}
	g.Stop()
	eng.Run()
}

func TestArrivalSamplingUnderReports(t *testing.T) {
	eng := sim.NewEngine(6)
	cl := cluster.New(eng, app.RobotShop(), cluster.DefaultConfig())
	for _, name := range cl.App.ServiceNames() {
		cl.Deployment(name).SetReplicas(4)
	}
	eng.RunUntil(60)
	g := workload.NewOpenLoop(cl, workload.ConstRate(40))
	g.Start()
	eng.RunUntil(100)
	rates := map[string]float64{}
	full := cl.FillAPIArrivalRates(rates, 20)
	cl.SetArrivalSampling(0.1)
	eng.RunUntil(130)
	sampled := cl.FillAPIArrivalRates(rates, 20)
	g.Stop()
	eng.Run()
	if full <= 0 {
		t.Fatal("no baseline rate")
	}
	ratio := sampled / full
	if ratio < 0.05 || ratio > 0.2 {
		t.Errorf("sampled/full rate = %.3f, want ≈0.1", ratio)
	}
}

// At p = 0.9 for the whole run, about one trace in ten reaches the
// collector.
func TestTraceDropLosesTraces(t *testing.T) {
	sc := []Event{DropTraces(0, 0.9, 80)}
	r := scriptedRun(t, 9, sc, 80)
	completed := r.cl.E2EWindow().Len()
	if completed == 0 || r.traced > completed/5 {
		t.Errorf("%d of %d completed requests' traces collected at p=0.9, want about a tenth", r.traced, completed)
	}
}
