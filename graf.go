// Package graf is a Go implementation of GRAF, the graph-neural-network
// based proactive resource allocation framework for SLO-oriented
// microservices (Park, Choi, Lee, Han — CoNEXT 2021), together with every
// substrate it needs to run end to end: a discrete-event microservice
// cluster simulator with Kubernetes-style orchestration, distributed
// tracing, load generation, the baseline autoscalers the paper compares
// against, and a benchmark harness reproducing the paper's evaluation.
//
// # Quick start
//
// Train a latency prediction model offline, solve once, and let the GRAF
// controller hold the tail-latency SLO with minimal CPU on a simulated
// deployment (the package's Example is this code and compiles with its
// tests):
//
//	a := graf.OnlineBoutique()
//	slo := 250 * time.Millisecond
//	trained := graf.Train(a, graf.TrainOptions{
//		SLO: slo, MinRate: 40, MaxRate: 320,
//	})
//	load := graf.DistributeWorkload(a, a.MixRates(150))
//	sol := graf.Solve(trained, load, slo)
//	fmt.Println(sol.Quotas, sol.Predicted)
//	s := graf.NewSimulation(a, 1)
//	ctl, err := s.StartGRAF(trained, slo)
//	if err != nil {
//		panic(err)
//	}
//	gen := s.OpenLoop(graf.ConstRate(150))
//	gen.Start()
//	s.RunFor(10 * time.Minute)
//	fmt.Println(s.Cluster.TotalInstances(), s.P99(time.Minute))
//	gen.Stop()
//	ctl.Stop()
//
// # What the package holds
//
// The builtin applications (OnlineBoutique, SocialNetwork, RobotShop,
// Bookinfo, AppByName); the offline path (Train, TrainedModel with Save,
// LoadModel, Bundle and ValidateFor, Solve, DistributeWorkload); Simulation,
// one cluster on a discrete-event engine, with its load generators
// (ConstRate, StepRate), the baselines (StartHPA, StartFIRM), the controller
// (StartGRAF), faults (Chaos and the Chaos* events), the model lifecycle
// (NewLifecycle) and the flight recorder (EnableObservability); audit logs
// (ReadAuditLog, ReplayAuditManaged); the multi-tenant fleet (NewFleet); and
// aliases of the internal types those signatures use. Every name is used by
// a command, an example, a test or the repository benchmark; the internal
// packages hold the rest.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package graf

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"graf/internal/app"
	"graf/internal/autoscale"
	"graf/internal/chaos"
	"graf/internal/ckpt"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/gnn"
	"graf/internal/lifecycle"
	"graf/internal/obs"
	"graf/internal/rpc"
	"graf/internal/sim"
	"graf/internal/workload"
)

// Re-exported building blocks. These aliases are the public names for the
// framework's core types; their methods are documented in the internal
// packages they alias.
type (
	// App describes a microservice application: its service graph, API
	// call trees, and per-service CPU-work parameters.
	App = app.App
	// Model is the GNN latency prediction model (§3.4 of the paper).
	Model = gnn.Model
	// Sample is one (workload, resources, latency) training triple.
	Sample = gnn.Sample
	// Controller is GRAF's runtime control loop (§3.6/§3.8).
	Controller = core.Controller
	// Bounds is Algorithm 1's reduced per-service search space.
	Bounds = core.Bounds
	// Solution is the configuration solver's output (§3.5).
	Solution = core.Solution
	// HPA is the Kubernetes horizontal-pod-autoscaler baseline.
	HPA = autoscale.HPA
	// FIRMLike is the FIRM-style latency-ratio baseline.
	FIRMLike = autoscale.FIRMLike
	// OpenLoop is a Vegeta-like constant/shaped-rate load generator.
	OpenLoop = workload.OpenLoop
	// ClosedLoop is a Locust-like user-thread load generator.
	ClosedLoop = workload.ClosedLoop
)

// Builtin applications from the paper's evaluation.
func OnlineBoutique() *App { return app.OnlineBoutique() }

// SocialNetwork returns the DeathStarBench Social Network application.
func SocialNetwork() *App { return app.SocialNetwork() }

// RobotShop returns the two-service Robot Shop slice used in Fig 6.
func RobotShop() *App { return app.RobotShop() }

// Bookinfo returns Istio's Bookinfo application (Fig 5).
func Bookinfo() *App { return app.Bookinfo() }

// AppByName resolves a builtin application by its portable name
// ("online-boutique", "social-network", "robot-shop", "bookinfo", or
// "chain-N" for a synthetic N-service chain) — the same names the
// multi-process control plane ships in its fleet spec, so a CLI flag and a
// router spec always resolve to the identical graph.
func AppByName(name string) (*App, error) { return app.ByName(name) }

// ConstRate returns a fixed open-loop rate shape.
func ConstRate(rps float64) func(float64) float64 { return workload.ConstRate(rps) }

// StepRate returns a base→surge open-loop rate shape switching at the given
// simulated time.
func StepRate(base, surge float64, at time.Duration) func(float64) float64 {
	return workload.StepRate(base, surge, at.Seconds())
}

// Chaos-injection building blocks (see internal/chaos and DESIGN.md).
type (
	// ChaosInjector schedules scripted fault scenarios against a cluster.
	ChaosInjector = chaos.Injector
	// ChaosScenario is a named, ordered fault schedule.
	ChaosScenario = chaos.Scenario
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
)

// ChaosKill kills n ready instances of svc at the given offset.
func ChaosKill(at time.Duration, svc string, n int) ChaosEvent {
	return chaos.Kill(at.Seconds(), svc, n)
}

// ChaosCrashFraction crashes the given fraction of every deployment's
// instances at the given offset (a correlated failure).
func ChaosCrashFraction(at time.Duration, fraction float64) ChaosEvent {
	return chaos.Crash(at.Seconds(), fraction)
}

// ChaosTelemetryBlackhole suppresses the frontend arrival telemetry for the
// window — requests still flow, but the controller's rate windows go dark.
func ChaosTelemetryBlackhole(at, duration time.Duration) ChaosEvent {
	return chaos.BlackholeFrontend(at.Seconds(), duration.Seconds())
}

// ChaosArrivalSampling records only the given fraction of arrivals in
// telemetry for the window (a lossy metrics pipeline).
func ChaosArrivalSampling(at time.Duration, keep float64, duration time.Duration) ChaosEvent {
	return chaos.SampleArrivals(at.Seconds(), keep, duration.Seconds())
}

// ChaosTraceDrop discards the given fraction of completed traces for the
// window, starving the Workload Analyzer.
func ChaosTraceDrop(at time.Duration, p float64, duration time.Duration) ChaosEvent {
	return chaos.DropTraces(at.Seconds(), p, duration.Seconds())
}

// ChaosContention multiplies svc's service times by factor for the window
// (a noisy neighbor).
func ChaosContention(at time.Duration, svc string, factor float64, duration time.Duration) ChaosEvent {
	return chaos.Contend(at.Seconds(), svc, factor, duration.Seconds())
}

// ChaosSurfaceDrift permanently multiplies the per-request CPU work of svc
// ("" = every service) by factor at the given offset — a code regression or
// dependency upgrade that invalidates the latency surface the model was
// trained on. Unlike ChaosContention it never expires: only retraining (see
// NewLifecycle), not patience, recovers the predictor.
func ChaosSurfaceDrift(at time.Duration, svc string, factor float64) ChaosEvent {
	return chaos.Drift(at.Seconds(), svc, factor)
}

// ErrCorruptFile matches (via errors.Is) every corruption error raised by
// checkpoint and model files: bad magic, wrong version, truncation, or
// checksum mismatch.
var ErrCorruptFile = ckpt.ErrCorrupt

// Model-lifecycle building blocks (see internal/lifecycle and DESIGN.md §3f).
type (
	// Lifecycle is the model-trust subsystem: an online drift detector over
	// the predictor's live residuals, shadow retraining on post-drift
	// telemetry, gated canary promotion, and automatic rollback within a
	// probation window. Obtain one with NewLifecycle.
	Lifecycle = lifecycle.Manager
	// LifecycleConfig turns on the lifecycle for every tenant of a fleet
	// (FleetConfig.Lifecycle): the offline set retraining replays (NewFleet
	// defaults it to the trained model's Samples) and the generation
	// archive directory. Every tuning value is a constant of the lifecycle.
	LifecycleConfig = lifecycle.Config
	// LifecyclePhase is the manager's state-machine phase (Trusted,
	// Drifted, Shadow, Probation).
	LifecyclePhase = lifecycle.Phase
)

// Lifecycle phases.
const (
	LifecycleTrusted   = lifecycle.PhaseTrusted
	LifecycleDrifted   = lifecycle.PhaseDrifted
	LifecycleProbation = lifecycle.PhaseProbation
)

// LifecycleOptions parameterizes NewLifecycle.
type LifecycleOptions struct {
	// OnEvent observes lifecycle transitions (trips, retrains, promotions,
	// rollbacks) for CLI logging.
	OnEvent func(at time.Duration, kind, detail string)
}

// NewLifecycle creates the model-trust manager for this simulation around a
// trained model (generation 0). Retraining replays the model's own Samples
// (which Save/LoadModel round-trip with the weights) re-registered onto the
// drifted surface, so candidates keep global shape. The manager is not yet
// watching anything: bind it to a controller with Attach, then Start it:
//
//	ctl, _ := sim.StartGRAF(trained, slo)
//	lc := sim.NewLifecycle(trained, graf.LifecycleOptions{})
//	lc.Attach(ctl)
//	lc.Start()
//
// A simulation's manager and its generations (Models) live and die with the
// process; a lifecycle tenant that must survive a crash, or archive its
// generations (grafd -model-archive), runs on the fleet.
func (s *Simulation) NewLifecycle(t *TrainedModel, o LifecycleOptions) *Lifecycle {
	cfg := lifecycle.Config{BaseSamples: t.Samples}
	m := lifecycle.NewManager(s.Cluster, t.Model, t.Bounds, t.SLO.Seconds(), cfg)
	if s.obs != nil {
		m.Obs = obs.NewLifecycleObs(s.obs)
	}
	if o.OnEvent != nil {
		ev := o.OnEvent
		m.OnEvent = func(at float64, kind, detail string) {
			ev(time.Duration(at*float64(time.Second)), kind, detail)
		}
	}
	return m
}

// Observability building blocks (see internal/obs and DESIGN.md §3d).
type (
	// Observability bundles the flight-recorder telemetry planes: the
	// metrics registry behind /metrics and the JSONL audit log. Obtain one
	// with Simulation.EnableObservability.
	Observability = obs.Telemetry
	// AuditRecord is one line of the flight-recorder audit log.
	AuditRecord = obs.Record
	// ReplayReport summarizes an audit-log replay (see ReplayAuditManaged).
	ReplayReport = core.ReplayReport
)

// ReadAuditLog parses a JSONL audit log, such as a grafd -audit-dir
// tenant's. A log whose final line is torn (the writer crashed mid-append)
// yields the valid prefix — complete for everything but the interrupted
// append — together with an error.
func ReadAuditLog(r io.Reader) ([]AuditRecord, error) { return obs.ReadLog(r) }

// LatencyModel is the prediction interface the solver and replay consume; a
// *Model implements it.
type LatencyModel = core.LatencyModel

// ReplayAuditManaged re-runs every model-path decision of a recorded audit
// log and verifies each reproduces bit-identically (same quotas, prediction,
// iteration count, convergence). Each decision record names the model
// generation that produced it and replays through that generation's model.
// models maps generation → model: {0: trained.Model} for a log recorded
// without a lifecycle, a live Lifecycle's Models() for one that promoted or
// rolled back mid-run, or the generation files a fleet's model archive
// (grafd -model-archive) wrote, reloaded with LoadModel.
func ReplayAuditManaged(models map[int]LatencyModel, log []AuditRecord) ReplayReport {
	return core.ReplayAuditModels(models, log)
}

// Simulation bundles a deterministic discrete-event engine with a cluster
// running one application.
type Simulation struct {
	Engine  *sim.Engine
	Cluster *cluster.Cluster

	chaosInj *ChaosInjector
	obs      *Observability
}

// EnableObservability attaches a flight-recorder telemetry bundle to the
// simulation: cluster scale events and instance churn, chaos firings, and —
// for controllers started after this call — per-decision metrics and audit
// records, all kept in memory (Flight.Records). Returns the bundle; serve its
// Handler (or call Serve) to expose /metrics, /debug/vars and
// /debug/pprof/*. Calling it again replaces the bundle.
func (s *Simulation) EnableObservability() *Observability {
	t := obs.New(obs.Options{})
	s.obs = t
	s.Cluster.Obs = obs.NewClusterObs(t)
	if s.chaosInj != nil {
		s.chaosInj.Obs = obs.NewChaosObs(t)
	}
	return t
}

// NewSimulation deploys a on a fresh simulated cluster (one warm instance
// per microservice) with the default Kubernetes-like configuration. The
// cluster keeps its telemetry for the whole run: P99 takes any window.
func NewSimulation(a *App, seed int64) *Simulation {
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	cl.DeclareLookback(cluster.AllSignals, math.Inf(1))
	return &Simulation{Engine: eng, Cluster: cl}
}

// RunFor advances simulated time by d.
func (s *Simulation) RunFor(d time.Duration) {
	s.Engine.RunUntil(s.Engine.Now() + d.Seconds())
}

// Now returns the current simulated time since start.
func (s *Simulation) Now() time.Duration {
	return time.Duration(s.Engine.Now() * float64(time.Second))
}

// P99 returns the end-to-end 99th-percentile latency over the trailing
// window.
func (s *Simulation) P99(window time.Duration) time.Duration {
	return time.Duration(s.Cluster.E2ELatencyQuantile(0.99, window.Seconds()) * float64(time.Second))
}

// OpenLoop attaches a Vegeta-like generator with the given rate shape
// (req/s as a function of simulated seconds).
func (s *Simulation) OpenLoop(rate func(float64) float64) *OpenLoop {
	return workload.NewOpenLoop(s.Cluster, rate)
}

// ClosedLoop attaches a Locust-like generator with the given user-count
// shape.
func (s *Simulation) ClosedLoop(users func(float64) int) *ClosedLoop {
	return workload.NewClosedLoop(s.Cluster, users)
}

// Chaos returns the simulation's fault injector. Event offsets in a played
// scenario are relative to the simulated time of the Play call, so a
// scenario can be replayed against a warmed-up cluster.
func (s *Simulation) Chaos() *ChaosInjector {
	if s.chaosInj == nil {
		s.chaosInj = chaos.New(s.Cluster)
		s.chaosInj.Obs = obs.NewChaosObs(s.obs)
	}
	return s.chaosInj
}

// StartHPA runs the Kubernetes autoscaler baseline over every microservice
// at the given CPU-utilization threshold.
func (s *Simulation) StartHPA(threshold float64) *HPA {
	h := autoscale.NewHPA(s.Cluster, threshold)
	h.Start()
	return h
}

// StartFIRM runs the FIRM-like baseline.
func (s *Simulation) StartFIRM() *FIRMLike {
	f := autoscale.NewFIRMLike(s.Cluster)
	f.Start()
	return f
}

// StartGRAF runs the GRAF controller using a trained model. It fails when
// the model's shape does not match the simulation's application — e.g. a
// model trained for a different app, or a stale file after the service
// graph changed.
func (s *Simulation) StartGRAF(t *TrainedModel, slo time.Duration) (*Controller, error) {
	if err := t.ValidateFor(s.Cluster.App); err != nil {
		return nil, err
	}
	an := core.NewAnalyzer(s.Cluster.App)
	cfg := core.DefaultControllerConfig(slo.Seconds())
	cfg.TrainedMinRate = t.MinRate
	cfg.TrainedMaxRate = t.MaxRate
	ctl := core.NewController(s.Cluster, t.Model, an, t.Bounds, cfg)
	if s.obs != nil {
		ctl.Obs = obs.NewControllerObs(s.obs)
		s.obs.Flight.Record(core.HeaderRecord(s.Cluster.App, cfg, s.Engine.Now()))
	}
	ctl.Start()
	return ctl, nil
}

// TrainOptions parameterizes offline training (§3.7, §5 "Sample Collection
// and Training").
type TrainOptions struct {
	// SLO is the end-to-end tail-latency objective used by Algorithm 1 to
	// bound the search space.
	SLO time.Duration

	// MinRate and MaxRate bound the total front-end request rates the
	// training set covers.
	MinRate, MaxRate float64

	// Samples, Iterations and Batch override the training budget
	// (defaults: 4000 samples, 1600 iterations, batch 128).
	Samples    int
	Iterations int
	Batch      int

	// SimulatorLabels labels every sample with a discrete-event
	// measurement instead of the calibrated analytic fast path. Slower
	// but exact.
	SimulatorLabels bool

	Seed int64
}

// TrainedModel is the output of Train: a latency prediction model plus the
// search-space bounds and workload range it was trained for.
type TrainedModel struct {
	Model   *Model
	Bounds  Bounds
	MinRate float64
	MaxRate float64
	SLO     time.Duration

	// Samples is the training set the model was fit on. Save persists it
	// with the model so a loaded model can feed lifecycle retraining
	// (NewLifecycle's replay set) without re-collecting.
	Samples []Sample
}

// Train runs GRAF's offline path for application a: Algorithm 1 search
// space reduction, state-aware sample collection, and GNN training.
func Train(a *App, o TrainOptions) *TrainedModel {
	if o.Samples <= 0 {
		o.Samples = 4000
	}
	if o.Iterations <= 0 {
		o.Iterations = 1600
	}
	if o.Batch <= 0 {
		o.Batch = 128
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	tr := core.Train(a, core.TrainSpec{
		SLO: o.SLO.Seconds(), MinRate: o.MinRate, MaxRate: o.MaxRate,
		Samples: o.Samples, Iterations: o.Iterations, Batch: o.Batch,
		LR: core.ProductLR, CalibrationProbes: core.ProductCalibrationProbes,
		SimulatorLabels: o.SimulatorLabels, Seed: o.Seed,
	})
	return &TrainedModel{Model: tr.Model, Bounds: tr.Bounds, MinRate: o.MinRate, MaxRate: o.MaxRate, SLO: o.SLO, Samples: tr.Samples}
}

// saveGeneration persists a lifecycle model generation in the same GRAFMDL1
// frame as Save/LoadModel, with the incumbent's metadata, so an archived
// generation is a loadable TrainedModel in its own right.
func (t *TrainedModel) saveGeneration(mod *Model, path string) error {
	tm := &TrainedModel{Model: mod, Bounds: t.Bounds, MinRate: t.MinRate, MaxRate: t.MaxRate, SLO: t.SLO}
	return tm.Save(path)
}

// Bundle adapts the trained model to the control plane's process-local
// artifact: what grafd, every shard and grafrouter combine with a fleet spec.
func (t *TrainedModel) Bundle() rpc.ModelBundle {
	return rpc.ModelBundle{
		Model:   t.Model,
		Bounds:  t.Bounds,
		SLO:     t.SLO.Seconds(),
		MinRate: t.MinRate, MaxRate: t.MaxRate,
		Samples:   t.Samples,
		SaveModel: t.saveGeneration,
	}
}

// ValidateFor checks that the trained model's shape matches application a:
// same service count, consistent bounds, and the same caller structure. A
// mismatch means the model was trained for a different application (or an
// older revision of this one) and its predictions would be garbage.
func (t *TrainedModel) ValidateFor(a *App) error {
	if t == nil || t.Model == nil {
		return fmt.Errorf("graf: trained model is nil")
	}
	n := len(a.Services)
	if t.Model.Cfg.Nodes != n {
		return fmt.Errorf("graf: model trained for %d services, application %q has %d",
			t.Model.Cfg.Nodes, a.Name, n)
	}
	if len(t.Bounds.Lo) != n || len(t.Bounds.Hi) != n {
		return fmt.Errorf("graf: bounds cover %d/%d services, application %q has %d",
			len(t.Bounds.Lo), len(t.Bounds.Hi), a.Name, n)
	}
	want := a.Parents()
	got := t.Model.Cfg.Parents
	if len(got) != len(want) {
		return fmt.Errorf("graf: model graph has %d nodes, application %q has %d",
			len(got), a.Name, len(want))
	}
	for i := range want {
		if !sameParentSet(got[i], want[i]) {
			return fmt.Errorf("graf: model graph disagrees with application %q at service %q: callers %v, want %v",
				a.Name, a.Services[i].Name, got[i], want[i])
		}
	}
	return nil
}

// sameParentSet compares two caller lists as sets.
func sameParentSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Save persists the trained model and its metadata to path, crash-safely:
// the framed (magic/version/CRC32) encoding is written to a temp file,
// fsynced, and atomically renamed over the target, so an interrupted Save
// leaves either the previous file or the complete new one — never a torn
// mixture.
func (t *TrainedModel) Save(path string) error {
	blob, err := encodeTrained(t)
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, blob, 0o644)
}

// LoadModel restores a model previously written with Save. It rejects
// truncated, bit-flipped or wrong-format files with an error identifying
// what failed validation (errors.Is(err, ErrCorruptFile) distinguishes
// corruption from I/O trouble).
func LoadModel(path string) (*TrainedModel, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeTrained(blob)
}

// Solve runs the configuration solver once: the minimal per-service quotas
// (millicores, in App.Services order) whose predicted tail latency meets
// the SLO for the given per-service workload vector.
func Solve(t *TrainedModel, load []float64, slo time.Duration) Solution {
	return core.Solve(t.Model, load, slo.Seconds(), t.Bounds.Lo, t.Bounds.Hi, core.DefaultSolverConfig())
}

// DistributeWorkload converts per-API frontend rates to the per-service
// workload vector the model and solver consume, using the application's
// declared call trees (the Workload Analyzer uses live traces instead).
func DistributeWorkload(a *App, apiRates map[string]float64) []float64 {
	return core.NewAnalyzer(a).Distribute(apiRates)
}

// --- Fleet mode (multi-tenant control plane, DESIGN.md §3g) -----------------

type (
	// Fleet runs many tenant applications — each with its own simulated
	// cluster and controller — in one process, sharing one latency model
	// behind a quantized prediction cache.
	Fleet = fleet.Fleet

	// FleetConfig parameterizes NewFleet beyond what the trained model
	// provides: the tenant set, the worker count and policies.
	FleetConfig = fleet.Config

	// FleetTenant describes one tenant application in a fleet.
	FleetTenant = fleet.TenantConfig
)

// NewFleet builds a multi-tenant fleet from a trained model: the
// application graph, solver bounds, SLO, and trained workload range all
// come from t; cfg supplies the tenant set and scheduling knobs (its App,
// Model, Bounds, SLO, MinRate and MaxRate fields are overwritten). Lifecycle
// tenants replay t.Samples when cfg.Lifecycle names no base set, as
// NewLifecycle's do.
func NewFleet(a *App, t *TrainedModel, cfg FleetConfig) (*Fleet, error) {
	if err := t.ValidateFor(a); err != nil {
		return nil, err
	}
	cfg.App = a
	cfg.Model = t.Model
	cfg.Bounds = t.Bounds
	cfg.SLO = t.SLO.Seconds()
	cfg.MinRate = t.MinRate
	cfg.MaxRate = t.MaxRate
	if lc := cfg.Lifecycle; lc != nil && len(lc.BaseSamples) == 0 {
		cfg.Lifecycle = &LifecycleConfig{BaseSamples: t.Samples, Dir: lc.Dir}
	}
	return fleet.New(cfg)
}
