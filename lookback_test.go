package graf

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"graf/internal/app"
	"graf/internal/autoscale"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/gnn"
	"graf/internal/lifecycle"
	"graf/internal/sim"
	"graf/internal/workload"
)

// Every component that reads a cluster's trailing telemetry declares, when it
// is built, each signal it reads and how far back (cluster.DeclareLookback),
// and a signal nobody declared keeps nothing and panics when read. So each
// reader, alone on a fresh cluster, must run on its own ticker for two
// simulated minutes — long past every look-back — and step once more without
// such a panic: a read added to a reader without its declaration fails here.
// Each runs at a constant rate and at one falling from 400 to 20 req/s, since
// a window hands back what a busier look-back held: a read reaching past a
// too-short declaration cannot then answer from chunks the busy phase left.
func TestEveryReaderDeclaresWhatItReads(t *testing.T) {
	a := app.SyntheticChain(4)
	n := len(a.Services)
	model := gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(42)))
	bounds := core.Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := range bounds.Lo {
		bounds.Lo[i], bounds.Hi[i] = 100, 1500
	}
	const slo = 0.25
	newController := func(cl *cluster.Cluster) *core.Controller {
		return core.NewController(cl, model, core.NewAnalyzer(a), bounds, core.DefaultControllerConfig(slo))
	}

	// onCluster runs a reader built by start on a fresh cluster, provisioned
	// for the rate's start and loaded at the rate, and returns its step
	// function.
	onCluster := func(start func(cl *cluster.Cluster) (step func())) func(rate func(float64) float64) {
		return func(rate func(float64) float64) {
			eng := sim.NewEngine(3)
			cl := cluster.New(eng, a, cluster.DefaultConfig())
			autoscale.ProvisionProactive(cl, rate(0), 0.5)
			step := start(cl)
			workload.NewOpenLoop(cl, rate).Start()
			eng.RunUntil(120)
			step()
		}
	}
	rates := []struct {
		name string
		rate func(float64) float64
	}{
		{"constant", workload.ConstRate(100)},
		{"falling", func(t float64) float64 { return max(20, 400-380*t/120) }},
	}
	for _, tc := range []struct {
		name string
		run  func(rate func(float64) float64)
	}{
		{"controller", onCluster(func(cl *cluster.Cluster) func() {
			ctl := newController(cl)
			ctl.Start()
			return ctl.Step
		})},
		{"anomaly mitigator", onCluster(func(cl *cluster.Cluster) func() {
			m := core.NewAnomalyMitigator(cl)
			m.Start()
			return m.Step
		})},
		{"lifecycle manager", onCluster(func(cl *cluster.Cluster) func() {
			m := lifecycle.NewManager(cl, model, bounds, slo, lifecycle.Config{})
			ctl := newController(cl)
			m.Attach(ctl)
			ctl.Start()
			m.Start()
			return m.Tick
		})},
		{"HPA", onCluster(func(cl *cluster.Cluster) func() {
			h := autoscale.NewHPA(cl, 0.5)
			h.Start()
			return h.Step
		})},
		{"FIRM-like", onCluster(func(cl *cluster.Cluster) func() {
			f := autoscale.NewFIRMLike(cl)
			f.Start()
			return f.Step
		})},
		{"fleet tenant", func(rate func(float64) float64) {
			f, err := fleet.New(fleet.Config{
				App: a, Model: model, Bounds: bounds, SLO: slo, MinRate: 50, MaxRate: 400,
				Workers: 1, TickS: 5, Seed: 1,
				Tenants: []fleet.TenantConfig{{ID: "t", Rate: rate}},
			})
			if err != nil {
				panic(err)
			}
			defer f.Stop()
			f.Run(125)
			if tn := f.Tenants()[0]; tn.Degraded() { // a tenant's panic degrades it
				panic(tn.PanicValue())
			}
		}},
		{"graf.Simulation", func(rate func(float64) float64) {
			s := NewSimulation(a, 3)
			tm := &TrainedModel{Model: model, Bounds: bounds, MinRate: 50, MaxRate: 400, SLO: 250 * time.Millisecond}
			ctl, err := s.StartGRAF(tm, tm.SLO)
			if err != nil {
				panic(err)
			}
			s.StartHPA(0.5)
			s.StartFIRM()
			s.OpenLoop(rate).Start()
			s.RunFor(2 * time.Minute)
			ctl.Step()
			s.P99(2 * time.Minute) // any window: a simulation keeps the whole run
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, load := range rates {
				t.Run(load.name, func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatal(fmt.Sprint(r))
						}
					}()
					tc.run(load.rate)
				})
			}
		})
	}
}
