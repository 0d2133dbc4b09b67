package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graf/internal/app"
	"graf/internal/autoscale"
	"graf/internal/chaos"
	"graf/internal/ckpt"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/lifecycle"
	"graf/internal/obs"
	"graf/internal/overload"
	"graf/internal/sim"
	"graf/internal/workload"
)

// Config parameterizes a fleet.
type Config struct {
	// App is the application graph every tenant runs (the shared model was
	// trained for it).
	App *app.App
	// Model is the shared latency model serving every tenant's solver.
	Model *gnn.Model
	// Bounds are the solver's per-service quota bounds.
	Bounds core.Bounds
	// SLO is the end-to-end latency objective in seconds.
	SLO float64
	// MinRate/MaxRate is the workload range the model was trained on.
	MinRate, MaxRate float64

	// Tenants describes the applications to run.
	Tenants []TenantConfig

	// Workers is the worker-pool size driving tenant ticks (default 8).
	Workers int
	// Shards is read by nothing: the frozen benchmark/ module sets it; it
	// goes at the benchmark refresh (ROADMAP 7(a)).
	Shards int
	// TickS is the per-tenant tick quantum in simulated seconds: each
	// round advances every live tenant by this much (default 5).
	TickS float64
	// Seed derives every tenant's engine seed (with an fnv-1a hash of the
	// tenant's ID).
	Seed int64

	// Controller optionally overrides the per-tenant controller
	// configuration (nil = core.DefaultControllerConfig(SLO)).
	Controller *core.ControllerConfig

	// Lifecycle, when non-nil, runs the model-trust lifecycle (drift
	// detection, shadow retraining, gated promotion, rollback) for every
	// tenant. A lifecycle tenant swaps model generations on its own, so it
	// predicts privately instead of through the shared cache. The
	// manager runs on the tenant's simulated clock and retrains from a fixed
	// seed, so restores by re-execution reproduce every promotion. With
	// Lifecycle.Dir set, SaveModel persists each tenant's generations under
	// <Dir>/<sanitized-id>/.
	Lifecycle *lifecycle.Config
	SaveModel func(m *gnn.Model, path string) error

	// WarmStart provisions each tenant's cluster near its expected demand
	// and runs 60 simulated seconds before the controllers take over.
	WarmStart bool

	// Obs, when non-nil, receives fleet-level metrics (per-tenant labels +
	// aggregates). Per-tenant audit logs are always recorded in memory.
	Obs *obs.Telemetry

	// Tracer, when non-nil, records control-plane trace spans: one
	// "tenant/tick" span per tick with the controller's decision stages and
	// one "inference/batch" span per forward pass nested under it. Tracing
	// writes only to the tracer — never to the audit stream — so same-seed
	// runs stay byte-identical with it on or off.
	Tracer *obs.Tracer

	// SLOBudget, when non-nil, enables the per-tenant error-budget monitor:
	// violation-seconds are charged against the budget, fast/slow burn
	// rates are published as graf_slo_* metrics, and rising-edge alerts are
	// appended to the tenant's audit stream as "slo" records. Burn rates
	// run on simulated time, so alerts are deterministic per tenant.
	SLOBudget *obs.SLOConfig

	// Dynamic admits an initially empty tenant set — the RPC shard-server
	// mode, where the router decides placement through Admit/Evict/Resume
	// and the fleet is just this process's slice of it.
	Dynamic bool

	// AuditDir, when set, mirrors each tenant's audit stream into
	// <AuditDir>/<sanitized-id>.jsonl so it survives the process. Building a
	// tenant rewrites its file from scratch; Restore first repairs and reads
	// what the previous owner left (a crash mid-append leaves a torn final
	// line) and verifies the regenerated stream against it.
	AuditDir string

	// Brownout, when non-empty, is a scripted brownout schedule keyed by
	// tick index: every tenant walks the degradation ladder toward the
	// phase covering each tick. Scripted schedules are pure functions of
	// the tick count, so reference and distributed runs of the same spec
	// produce byte-identical audit streams — the CI-comparable drive mode.
	// Adaptive (wall-pressure) brownouts use SetBrownoutTarget instead.
	Brownout []BrownoutPhase
}

// BrownoutPhase is one interval of a scripted brownout schedule.
type BrownoutPhase struct {
	// FromTick (inclusive) and ToTick (exclusive) bound the phase in
	// 0-based tick indices; ToTick <= 0 leaves it open-ended. When phases
	// overlap, the last matching one wins.
	FromTick, ToTick int
	// Step is the ladder rung tenants should sit on during the phase.
	Step overload.Step
}

// scriptedStep resolves the rung a scripted schedule wants at a tick.
func scriptedStep(phases []BrownoutPhase, tick int) overload.Step {
	s := overload.StepFull
	for _, p := range phases {
		if tick >= p.FromTick && (p.ToTick <= 0 || tick < p.ToTick) {
			s = overload.ClampStep(p.Step)
		}
	}
	return s
}

// auditMemory is how many audit records each tenant keeps in memory for
// Records (the decision-stream endpoint's source).
const auditMemory = 16

// TenantConfig describes one tenant application. Every tenant runs the
// fleet's application graph, model and bounds.
type TenantConfig struct {
	// ID names the tenant; it seeds the tenant's engine and names its audit
	// stream. IDs must be unique.
	ID string
	// Rate is the open-loop arrival-rate shape (req/s as a function of
	// simulated time). Nil means a constant 150 req/s.
	Rate func(t float64) float64
	// Users, when non-nil, drives the tenant closed-loop instead (Locust-like
	// user threads, the Azure-trace replay); Rate then only sizes the warm
	// start.
	Users func(t float64) int
	// Chaos, when non-nil, is played against the tenant's cluster at
	// start (event times are absolute simulated times).
	Chaos *chaos.Scenario
	// PanicAt, when positive, schedules a panic inside the tenant's tick
	// at that simulated time — the containment path's test hook.
	PanicAt float64
	// SLO, when positive, overrides the fleet SLO (seconds) for this
	// tenant's controller and violation accounting.
	SLO float64
}

// Tenant is one running application controller and everything tenant-scoped
// around it. During Run it is owned by exactly one worker at a time; after
// Run returns it may be inspected freely.
type Tenant struct {
	ID string

	Eng     *sim.Engine
	Cluster *cluster.Cluster
	Ctl     *core.Controller

	tel       *obs.Telemetry
	lc        *lifecycle.Manager // nil unless Config.Lifecycle
	pred      *TenantPredictor   // shared-service handle (nil for a private predictor)
	audit     auditLog
	auditSum  hash.Hash64 // running fnv-1a/64 of audit, fed by the same writer chain
	auditFile *os.File
	ckpt      *ckpt.Store   // the tenant's checkpoint namespace while it lives here; nil until it checkpoints
	saved     ckpt.Snapshot // the last checkpoint's state, refilled by the next: nothing keeps it past Save

	ticks    int
	violS    float64
	lastP99  float64
	degraded bool
	panicVal any

	slo float64 // effective SLO (fleet default or per-tenant override)

	// Brownout-ladder state: the rung this tenant sits on, how many
	// transitions it has made, and — during deterministic re-execution of
	// a migrated tenant — the tick-keyed schedule extracted from its prior
	// audit bytes, which overrides live drive modes until released.
	bstep   overload.Step
	bTrans  int
	replayB map[int]overload.Step
}

// Ticks returns how many control ticks the tenant completed.
func (t *Tenant) Ticks() int { return t.ticks }

// ViolationSeconds returns the tenant's accumulated SLO violation time.
func (t *Tenant) ViolationSeconds() float64 { return t.violS }

// LastP99 returns the tenant's most recent per-tick p99 (seconds).
func (t *Tenant) LastP99() float64 { return t.lastP99 }

// Degraded reports whether the tenant was quarantined by a contained panic.
func (t *Tenant) Degraded() bool { return t.degraded }

// PanicValue returns the recovered panic value for a degraded tenant.
func (t *Tenant) PanicValue() any { return t.panicVal }

// SLO returns the tenant's effective latency objective in seconds.
func (t *Tenant) SLO() float64 { return t.slo }

// Lifecycle returns the tenant's model-trust manager (nil unless the fleet
// runs with Config.Lifecycle).
func (t *Tenant) Lifecycle() *lifecycle.Manager { return t.lc }

// Exposition renders the tenant's own metrics registry (decision counters,
// stage histograms, cluster gauges) as Prometheus text.
func (t *Tenant) Exposition() string { return t.tel.Reg.Expose() }

// Brownout returns the ladder rung the tenant currently sits on.
func (t *Tenant) Brownout() overload.Step { return t.bstep }

// BrownoutTransitions returns how many ladder transitions the tenant made.
func (t *Tenant) BrownoutTransitions() int { return t.bTrans }

// AuditLog returns the tenant's JSONL audit stream so far, in a new slice
// each call. Byte-identical across same-seed runs regardless of worker
// count or GOMAXPROCS. Call from the driving goroutine (not during a round).
func (t *Tenant) AuditLog() []byte {
	t.tel.Flight.Flush()
	return t.audit.Bytes()
}

// AuditDigest returns the audit stream's length and fnv-1a/64 hash — the
// cheap fingerprint the RPC control plane ships in tick responses so the
// router can verify lossless migration without moving the full log. It is
// kept as the stream is written, so a tick response costs the same at tick
// 10 000 as at tick 1.
func (t *Tenant) AuditDigest() (n int, sum uint64) {
	t.tel.Flight.Flush()
	return t.audit.Len(), t.auditSum.Sum64()
}

// Records returns the tenant's retained in-memory audit records — the
// decision-stream endpoint's source.
func (t *Tenant) Records() []obs.Record {
	t.tel.Flight.Flush()
	return t.tel.Flight.Records()
}

// Quotas returns the tenant cluster's current per-service quotas.
func (t *Tenant) Quotas() map[string]float64 {
	q := map[string]float64{}
	for _, d := range t.Cluster.Snapshot().Deployments {
		q[d.Service] = d.Quota
	}
	return q
}

// Fleet is a running multi-tenant control plane.
type Fleet struct {
	cfg     Config
	tenants []*Tenant
	svc     *InferenceService
	fobs    *obs.FleetObs
	tracer  *obs.Tracer
	slo     *obs.SLOMonitor
	rounds  int
	panics  int
	mu      sync.Mutex // guards panics count (written from workers)

	// btarget is the adaptive brownout target rung (SetBrownoutTarget):
	// tenants walk one rung per tick toward it. Written by the driving
	// goroutine or an overload governor, read by workers.
	btargetMu sync.Mutex
	btarget   overload.Step

	// traceParent is the span tick spans nest under: the shard server's
	// current operation span in RPC mode, or a per-round root otherwise.
	// Written by the driving goroutine before a round, read by workers.
	traceMu     sync.Mutex
	traceParent obs.SpanContext

	// Round dispatch, reused by every round: due is the round's tenants in
	// sorted ID order, and workers claim them through the cursor next.
	// drainFn is f.drain bound once in New, because `go f.drain()` would
	// allocate a closure per worker per round.
	due     []*Tenant
	next    atomic.Int64
	workers sync.WaitGroup
	drainFn func()
}

// SanitizeID maps a tenant ID onto the filename-safe form used for its
// checkpoint namespace and audit file — exported so the control plane can
// locate a tenant's artifacts from outside the package.
func SanitizeID(id string) string { return sanitizeID(id) }

// sanitizeID maps a tenant ID onto a checkpoint-file prefix.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, id)
}

// New builds a fleet: per-tenant engines, clusters, workloads and
// controllers, plus the shared inference service. Run drives it.
func New(cfg Config) (*Fleet, error) {
	if cfg.App == nil || cfg.Model == nil {
		return nil, fmt.Errorf("fleet: App and Model are required")
	}
	if len(cfg.Tenants) == 0 && !cfg.Dynamic {
		return nil, fmt.Errorf("fleet: no tenants configured")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.TickS <= 0 {
		cfg.TickS = 5
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("fleet: SLO must be positive")
	}
	if n := len(cfg.App.Services); len(cfg.Bounds.Lo) != n || len(cfg.Bounds.Hi) != n {
		return nil, fmt.Errorf("fleet: bounds sized %d/%d for app %s with %d services",
			len(cfg.Bounds.Lo), len(cfg.Bounds.Hi), cfg.App.Name, n)
	}

	f := &Fleet{cfg: cfg, fobs: obs.NewFleetObs(cfg.Obs), tracer: cfg.Tracer}
	f.drainFn = f.drain
	if cfg.SLOBudget != nil {
		var reg *obs.Registry
		if cfg.Obs != nil {
			reg = cfg.Obs.Reg
		}
		f.slo = obs.NewSLOMonitor(*cfg.SLOBudget, reg)
	}
	f.svc = NewInferenceService(cfg.Model)
	f.svc.tracer = cfg.Tracer
	if cfg.AuditDir != "" {
		if err := os.MkdirAll(cfg.AuditDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: audit dir: %w", err)
		}
	}

	seen := map[string]bool{}
	for _, tc := range cfg.Tenants {
		if tc.ID == "" {
			return nil, fmt.Errorf("fleet: tenant with empty ID")
		}
		if seen[tc.ID] {
			return nil, fmt.Errorf("fleet: duplicate tenant ID %q", tc.ID)
		}
		seen[tc.ID] = true
		t, err := f.buildTenant(tc)
		if err != nil {
			return nil, err
		}
		f.tenants = append(f.tenants, t)
	}
	// Sorted tenant order everywhere: dispatch, summaries and checkpoints
	// are then independent of Config.Tenants ordering.
	sort.Slice(f.tenants, func(i, j int) bool { return f.tenants[i].ID < f.tenants[j].ID })
	return f, nil
}

func (f *Fleet) buildTenant(tc TenantConfig) (*Tenant, error) {
	cfg := f.cfg
	h := fnv.New32a()
	h.Write([]byte(tc.ID))
	seed := cfg.Seed + int64(h.Sum32())
	slo := cfg.SLO
	if tc.SLO > 0 {
		slo = tc.SLO
	}

	t := &Tenant{ID: tc.ID, slo: slo, auditSum: fnv.New64a()}
	t.Eng = sim.NewEngine(seed)
	t.Cluster = cluster.New(t.Eng, cfg.App, cluster.DefaultConfig())
	t.Cluster.DeclareLookback(cluster.E2ELatency, cfg.TickS) // tick's p99 over the interval it just ran

	// Per-tenant telemetry: the audit stream goes to a private buffer so
	// determinism tests can compare runs byte-for-byte; fleet-level
	// aggregates go to the shared registry via FleetObs instead. With
	// AuditDir set the same bytes are mirrored to a per-tenant file that
	// survives the process (the shard-loss recovery path reads it back).
	auditW := io.MultiWriter(&t.audit, t.auditSum)
	if cfg.AuditDir != "" {
		file, err := os.Create(filepath.Join(cfg.AuditDir, sanitizeID(tc.ID)+".jsonl"))
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s audit file: %w", tc.ID, err)
		}
		t.auditFile = file
		auditW = io.MultiWriter(auditW, file)
	}
	t.tel = obs.New(obs.Options{AuditW: auditW, AuditMemory: auditMemory})
	t.tel.SetTracer(f.tracer)
	t.Cluster.Obs = obs.NewClusterObs(t.tel)

	rate := tc.Rate
	if rate == nil {
		rate = workload.ConstRate(150)
	}
	if cfg.WarmStart {
		autoscale.ProvisionProactive(t.Cluster, rate(0), 0.5)
		t.Eng.RunUntil(60)
	}

	ccfg := f.controllerConfig(slo)

	var predictor core.LatencyModel = cfg.Model
	if cfg.Lifecycle == nil {
		t.pred = f.svc.NewPredictor()
		predictor = t.pred
	}
	an := core.NewAnalyzer(cfg.App)
	t.Ctl = core.NewController(t.Cluster, predictor, an, cfg.Bounds, ccfg)
	t.Ctl.Obs = obs.NewControllerObs(t.tel)
	t.tel.Flight.Record(core.HeaderRecord(cfg.App, ccfg, t.Eng.Now()))
	t.Ctl.Start()
	if cfg.Lifecycle != nil {
		lcfg := *cfg.Lifecycle
		if lcfg.Dir != "" {
			lcfg.Dir = filepath.Join(lcfg.Dir, sanitizeID(tc.ID))
			if err := os.MkdirAll(lcfg.Dir, 0o755); err != nil {
				return nil, fmt.Errorf("fleet: tenant %s model archive: %w", tc.ID, err)
			}
		}
		t.lc = lifecycle.NewManager(t.Cluster, cfg.Model, cfg.Bounds, slo, lcfg)
		t.lc.Obs = obs.NewLifecycleObs(t.tel)
		t.lc.SaveModel = cfg.SaveModel
		t.lc.PersistIncumbent()
		t.lc.Attach(t.Ctl)
		t.lc.Start()
	}

	if tc.Users != nil {
		workload.NewClosedLoop(t.Cluster, tc.Users).Start()
	} else {
		workload.NewOpenLoop(t.Cluster, rate).Start()
	}

	if tc.Chaos != nil {
		inj := chaos.New(t.Cluster)
		inj.Obs = obs.NewChaosObs(t.tel)
		inj.Play(*tc.Chaos)
	}
	if tc.PanicAt > 0 {
		at := math.Max(tc.PanicAt, t.Eng.Now())
		t.Eng.At(at, func() {
			panic(fmt.Sprintf("fleet: injected tenant panic at %gs", at))
		})
	}
	return t, nil
}

// Run advances every live tenant through rounds of TickS simulated seconds
// until each has covered durS. Tenants are dispatched to the worker pool
// each round with a barrier between rounds, so no tenant can run more than
// one tick ahead of another.
func (f *Fleet) Run(durS float64) {
	rounds := int(math.Ceil(durS / f.cfg.TickS))
	for r := 0; r < rounds; r++ {
		f.Round()
	}
	f.Stop()
}

// Start does nothing: a fleet has nothing to bring up. The frozen benchmark/
// module calls it; it goes at the benchmark refresh (ROADMAP 7(a)).
func (f *Fleet) Start() {}

// Stop flushes every tenant's audit stream and closes audit files. The fleet
// can still be inspected afterwards.
func (f *Fleet) Stop() {
	f.FlushAudit()
	for _, t := range f.tenants {
		if t.auditFile != nil {
			t.auditFile.Close()
			t.auditFile = nil
		}
	}
}

// Round runs exactly one barrier round: every live tenant advances TickS.
func (f *Fleet) Round() {
	f.runRound(0)
	f.rounds++
	f.publishRound()
}

// RoundTo advances the fleet to the absolute round index: only tenants with
// fewer than `round` completed ticks are ticked, which makes the operation
// idempotent — a retried or duplicated tick request over the network is a
// no-op for tenants that already reached the round. Freshly admitted or
// resumed tenants are fast-forwarded by as many ticks as they are behind.
func (f *Fleet) RoundTo(round int) {
	if round <= 0 {
		return
	}
	for {
		behind := false
		for _, t := range f.tenants {
			if !t.degraded && t.ticks < round {
				behind = true
				break
			}
		}
		if !behind {
			break
		}
		f.runRound(round)
	}
	if round > f.rounds {
		f.rounds = round
	}
	f.publishRound()
}

// runRound hands the live tenants, in sorted ID order, to the worker pool
// one at a time: with bound 0 every one, otherwise only those with fewer
// than bound ticks. Which worker ticks a tenant moves nothing a tenant
// writes: each owns its engine and its audit stream. A round allocates
// nothing: the slice, cursor, WaitGroup and worker function are the fleet's.
func (f *Fleet) runRound(bound int) {
	for _, t := range f.tenants {
		if !t.degraded && (bound == 0 || t.ticks < bound) {
			f.due = append(f.due, t)
		}
	}
	workers := min(f.cfg.Workers, len(f.due))
	f.next.Store(0)
	f.workers.Add(workers)
	for w := 0; w < workers; w++ {
		go f.drainFn()
	}
	f.workers.Wait()
	clear(f.due) // an evicted tenant is not kept reachable
	f.due = f.due[:0]
}

// drain is one worker's share of a round: it ticks tenants from the due
// list until the cursor passes its end.
func (f *Fleet) drain() {
	defer f.workers.Done()
	for {
		i := int(f.next.Add(1)) - 1
		if i >= len(f.due) {
			return
		}
		f.tick(f.due[i])
	}
}

// FlushAudit forces every tenant's buffered audit output to its sinks (the
// in-memory buffer and, with AuditDir, the per-tenant file). Shard servers
// call it before answering a tick so the on-disk log is never behind what
// the router has been told.
func (f *Fleet) FlushAudit() {
	for _, t := range f.tenants {
		t.tel.Flight.Flush()
		if t.auditFile != nil {
			t.auditFile.Sync()
		}
	}
}

// Admit builds a new tenant at runtime and inserts it into the fleet
// (Dynamic mode — the RPC admit endpoint). The tenant starts at tick 0;
// callers restoring a migrated tenant follow up with Resume.
func (f *Fleet) Admit(tc TenantConfig) (*Tenant, error) {
	if tc.ID == "" {
		return nil, fmt.Errorf("fleet: tenant with empty ID")
	}
	if f.Tenant(tc.ID) != nil {
		return nil, fmt.Errorf("fleet: duplicate tenant ID %q", tc.ID)
	}
	t, err := f.buildTenant(tc)
	if err != nil {
		return nil, err
	}
	f.tenants = append(f.tenants, t)
	sort.Slice(f.tenants, func(i, j int) bool { return f.tenants[i].ID < f.tenants[j].ID })
	return t, nil
}

// Evict removes a tenant from the fleet (the RPC evict/drain path): its
// audit stream is flushed, its file closed, and the tenant returned for
// final inspection. The simulated engine simply stops being ticked.
func (f *Fleet) Evict(id string) (*Tenant, error) {
	t := f.Tenant(id)
	if t == nil {
		return nil, fmt.Errorf("fleet: unknown tenant %q", id)
	}
	t.tel.Flight.Flush()
	if t.auditFile != nil {
		t.auditFile.Sync()
		t.auditFile.Close()
		t.auditFile = nil
	}
	// Wherever the tenant goes next writes its next generations: the
	// store's listing is out of date from here on.
	t.ckpt = nil
	out := f.tenants[:0]
	for _, x := range f.tenants {
		if x.ID != id {
			out = append(out, x)
		}
	}
	f.tenants = out
	return t, nil
}

// Resume fast-forwards a tenant to the given tick count by deterministic
// re-execution: the tenant was built fresh from its spec (same seed, same
// rate shape), so re-running the same ticks regenerates the exact decision
// sequence — and byte-identical audit bytes — the original process produced.
// This is what makes migration lossless without serializing engine state.
func (f *Fleet) Resume(id string, ticks int) error {
	t := f.Tenant(id)
	if t == nil {
		return fmt.Errorf("fleet: unknown tenant %q", id)
	}
	for t.ticks < ticks && !t.degraded {
		f.tick(t)
	}
	if t.degraded {
		return fmt.Errorf("fleet: tenant %q degraded during resume: %v", id, t.panicVal)
	}
	return nil
}

// RestoreReport says what a Restore found and verified.
type RestoreReport struct {
	// PriorBytes is how many audit bytes the tenant's previous owner had
	// durably recorded (0 = a fresh tenant).
	PriorBytes int
	// ReplayedTicks counts ticks re-executed beyond the requested count to
	// cover decisions the previous owner flushed but never reported.
	ReplayedTicks int
	// PriorVerified: the regenerated stream reproduced the prior bytes.
	PriorVerified bool
	// SnapshotVerified: the rebuilt controller state matched the tenant's
	// latest checkpoint digest (attempted when one exists at `ticks`).
	SnapshotVerified bool
}

// Restore places a tenant and brings it back losslessly when it lived
// before — the one restore sequence behind a shard's admit, a migration
// target and a restarted local daemon:
//
//  1. Repair + read any audit log the tenant's previous owner left in
//     AuditDir (the caller guarantees exclusive ownership: the old owner is
//     dead or has evicted).
//  2. Rebuild the tenant from its config (this truncates the audit file)
//     and fast-forward it to `ticks` by deterministic re-execution. Brownout
//     transitions recorded in the prior bytes are replayed first, so an
//     adaptively degraded tenant walks the same ladder at the same ticks.
//  3. If a checkpoint at `ticks` exists in ckptDir, verify the rebuilt
//     controller state digest against it.
//  4. If the prior log proves the old owner got further, replay up to
//     maxReplay more ticks until the regenerated stream covers it, then
//     verify the prior bytes are a byte-exact prefix — zero lost decisions,
//     checked, not assumed.
//
// On any failure the tenant is evicted again and the error returned.
func (f *Fleet) Restore(tc TenantConfig, ticks int, ckptDir string, maxReplay int) (*Tenant, RestoreReport, error) {
	var rep RestoreReport
	var prior []byte
	var recs []obs.Record
	if f.cfg.AuditDir != "" {
		path := filepath.Join(f.cfg.AuditDir, sanitizeID(tc.ID)+".jsonl")
		if _, err := os.Stat(path); err == nil {
			if prior, recs, _, err = obs.RepairLog(path); err != nil {
				return nil, rep, fmt.Errorf("repair prior audit log: %w", err)
			}
		}
	}
	rep.PriorBytes = len(prior)
	// Admit truncates the audit file and the restore below re-executes under
	// this build's solver: a log another solver version recorded could only
	// fail the prefix check, after its one copy was gone. Refuse it first
	// (the repair above has dropped a crash-torn last line, nothing more).
	if was, is := priorSolverVersion(recs), f.controllerConfig(0).Solver.Version; was != 0 && was != is {
		return nil, rep, fmt.Errorf("tenant %s: prior audit log was recorded under solver version %d and this fleet runs version %d: "+
			"a restore re-executes the log and cannot reproduce another version's decisions; "+
			"verify it with `grafd -replay` (which solves under the version a log names) and restart the tenant on an empty audit directory",
			tc.ID, was, is)
	}
	t, err := f.Admit(tc)
	if err != nil {
		return nil, rep, err
	}
	t.replayB = brownoutSchedule(recs)
	if err := f.restore(t, prior, ticks, ckptDir, maxReplay, &rep); err != nil {
		f.Evict(tc.ID)
		return nil, rep, err
	}
	// Replay is done and verified; future ticks follow the live drivers
	// (scripted schedule or adaptive target) from the rung replay landed on.
	t.replayB = nil
	return t, rep, nil
}

func (f *Fleet) restore(t *Tenant, prior []byte, ticks int, ckptDir string, maxReplay int, rep *RestoreReport) error {
	if err := f.Resume(t.ID, ticks); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if ckptDir != "" {
		snap, err := latestSnapshot(ckptDir, t.ID)
		switch {
		case err == nil && snap.Ticks == t.ticks:
			if err := t.VerifyAgainstSnapshot(snap); err != nil {
				return fmt.Errorf("snapshot verification: %w", err)
			}
			rep.SnapshotVerified = true
		case err != nil && !errors.Is(err, ckpt.ErrNoSnapshot):
			return fmt.Errorf("load snapshot: %w", err)
		}
	}
	if len(prior) == 0 {
		return nil
	}
	for n, _ := t.AuditDigest(); n < len(prior); n, _ = t.AuditDigest() {
		if rep.ReplayedTicks >= maxReplay {
			return fmt.Errorf("tenant %s: prior audit log (%d bytes) not covered after replaying %d extra ticks (%d bytes) — lost decisions",
				t.ID, len(prior), rep.ReplayedTicks, n)
		}
		if err := f.Resume(t.ID, t.ticks+1); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rep.ReplayedTicks++
	}
	if !bytes.HasPrefix(t.AuditLog(), prior) {
		return fmt.Errorf("tenant %s: regenerated audit stream diverges from prior log — lost decisions", t.ID)
	}
	rep.PriorVerified = true
	return nil
}

// controllerConfig is the configuration every tenant's controller is built
// from, at the tenant's SLO.
func (f *Fleet) controllerConfig(slo float64) core.ControllerConfig {
	ccfg := core.DefaultControllerConfig(slo)
	if f.cfg.Controller != nil {
		ccfg = *f.cfg.Controller
		ccfg.SLO = slo
	}
	ccfg.TrainedMinRate = f.cfg.MinRate
	ccfg.TrainedMaxRate = f.cfg.MaxRate
	return ccfg
}

// priorSolverVersion is the solver version the header of a tenant's prior
// audit log names: 1 for a header from before solvers were versioned, 0 when
// the log does not open with a header (an empty or foreign file, which the
// prefix check deals with).
func priorSolverVersion(log []obs.Record) int {
	if len(log) == 0 || log[0].Type != "header" {
		return 0
	}
	return core.SolverConfigFromMap(log[0].Solver).Version
}

// latestSnapshot loads a tenant's newest valid checkpoint from dir.
func latestSnapshot(dir, id string) (*ckpt.Snapshot, error) {
	store, err := ckpt.NewNamespacedStore(dir, "tenant-"+sanitizeID(id))
	if err != nil {
		return nil, err
	}
	return store.LoadLatest()
}

// CheckpointedTicks returns the tick count of a tenant's newest valid
// checkpoint in dir — where a restarted daemon resumes it — or 0 when the
// tenant has none.
func CheckpointedTicks(dir, id string) (int, error) {
	snap, err := latestSnapshot(dir, id)
	if errors.Is(err, ckpt.ErrNoSnapshot) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return snap.Ticks, nil
}

// SetTraceParent names the span the next rounds' tenant tick spans nest
// under — the shard server sets it to its current operation span before
// RoundTo/Resume, so a cross-process trace continues into the worker pool.
func (f *Fleet) SetTraceParent(c obs.SpanContext) {
	f.traceMu.Lock()
	f.traceParent = c
	f.traceMu.Unlock()
}

// TraceParent returns the current round-level parent context.
func (f *Fleet) TraceParent() obs.SpanContext {
	f.traceMu.Lock()
	defer f.traceMu.Unlock()
	return f.traceParent
}

// tick advances one tenant by the tick quantum, recording SLO accounting.
// A panic anywhere inside — the simulated cluster, the controller, the
// workload — degrades this tenant only.
func (f *Fleet) tick(t *Tenant) {
	if t.degraded {
		return
	}
	var span *obs.ActiveSpan
	if f.tracer != nil {
		span = f.tracer.StartChild(f.TraceParent(), "tenant/tick").
			SetTrack(t.ID).SetAttr("tick", float64(t.ticks+1))
		t.tel.SetTraceParent(span.Context())
		if t.pred != nil {
			t.pred.SetSpan(span.Context())
		}
		defer span.End()
	}
	defer func() {
		if r := recover(); r != nil {
			t.degraded = true
			t.panicVal = r
			f.mu.Lock()
			f.panics++
			f.mu.Unlock()
			f.fobs.TenantPanic(t.ID)
		}
	}()
	f.stepBrownout(t)
	from := t.Eng.Now()
	to := from + f.cfg.TickS
	t.Eng.RunUntil(to)
	p99 := t.Cluster.E2EWindow().Quantile(0.99, from, to)
	t.lastP99 = p99
	t.ticks++
	violated := p99 > t.slo
	if violated {
		t.violS += f.cfg.TickS
	}
	span.SetAttr("p99", p99)
	f.fobs.TenantTick(t.ID, p99, violated, f.cfg.TickS)
	// The burn-rate monitor runs on simulated time, so its alerts land at
	// the same ticks in every same-seed process — safe to record in the
	// audit stream without breaking byte-identity across migrations.
	for _, a := range f.slo.Observe(t.ID, to, violated, f.cfg.TickS) {
		t.tel.Flight.Record(obs.Record{
			Type: "slo", At: a.At, Kind: a.Window + "-burn", Detail: t.ID,
			Summary: map[string]float64{"burn": a.Burn},
		})
	}
}

// stepBrownout walks the tenant one rung along the degradation ladder at a
// tick boundary, before any of the tick's controller decisions. The desired
// rung comes from, in precedence order: the tenant's replay schedule (set
// while re-executing a migrated tenant), the fleet's scripted schedule, or
// the adaptive target. Walking at most one rung per tick keeps every
// transition sequence monotone (|Δ|=1), which the chaos invariant checker
// asserts, and each transition is emitted into the byte-compared audit
// stream before it takes effect — deterministic re-execution replays the
// schedule from those records and reproduces the degraded decisions exactly.
func (f *Fleet) stepBrownout(t *Tenant) {
	tick := t.ticks // 0-based index of the tick about to run
	desired := t.bstep
	switch {
	case t.replayB != nil:
		if s, ok := t.replayB[tick]; ok {
			desired = s
		}
	case len(f.cfg.Brownout) > 0:
		desired = scriptedStep(f.cfg.Brownout, tick)
	default:
		desired = f.BrownoutTarget()
	}
	next := t.bstep
	if desired > t.bstep {
		next++
	} else if desired < t.bstep {
		next--
	}
	if next == t.bstep {
		return
	}
	from := t.bstep
	t.bstep = next
	t.bTrans++
	t.tel.Flight.Record(obs.Record{
		Type: "brownout", At: t.Eng.Now(), Kind: next.String(), Detail: t.ID,
		From: from.String(), To: next.String(),
		Summary: map[string]float64{
			"from_step": float64(from),
			"to_step":   float64(next),
			"tick":      float64(tick),
		},
	})
	t.Ctl.SetBrownout(int(next))
	f.fobs.Brownout(t.ID, from.String(), next.String(), int(next))
}

// SetBrownoutTarget sets the adaptive brownout target rung: every tenant
// walks one rung per tick toward it (per-tenant transitions land in the
// audit stream, so adaptive runs stay replayable from their own records).
// Ignored while a scripted schedule is configured.
func (f *Fleet) SetBrownoutTarget(s overload.Step) {
	f.btargetMu.Lock()
	f.btarget = overload.ClampStep(s)
	f.btargetMu.Unlock()
}

// BrownoutTarget returns the current adaptive target rung.
func (f *Fleet) BrownoutTarget() overload.Step {
	f.btargetMu.Lock()
	defer f.btargetMu.Unlock()
	return f.btarget
}

// brownoutSchedule recovers the tick-keyed brownout transitions from a
// tenant's recorded audit log. A nil map means the recording never left the
// full rung.
func brownoutSchedule(log []obs.Record) map[int]overload.Step {
	var sched map[int]overload.Step
	for _, r := range log {
		if r.Type != "brownout" {
			continue
		}
		if sched == nil {
			sched = map[int]overload.Step{}
		}
		sched[int(r.Summary["tick"])] = overload.ClampStep(overload.Step(r.Summary["to_step"]))
	}
	return sched
}

func (f *Fleet) publishRound() {
	degraded := 0
	for _, t := range f.tenants {
		if t.degraded {
			degraded++
		}
	}
	f.fobs.Round(f.rounds, len(f.tenants), degraded)
	f.fobs.CacheStats(f.svc.Cache.Stats())
}

// TickS returns the tick quantum in simulated seconds.
func (f *Fleet) TickS() float64 { return f.cfg.TickS }

// Tenants returns the fleet's tenants in sorted ID order.
func (f *Fleet) Tenants() []*Tenant { return f.tenants }

// Tenant returns the tenant with the given ID, or nil.
func (f *Fleet) Tenant(id string) *Tenant {
	for _, t := range f.tenants {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Stats summarizes a fleet run.
type Stats struct {
	Degraded int
	Rounds   int
	Ticks    int
	Panics   int

	// BrownoutTransitions sums per-tenant ladder transitions.
	BrownoutTransitions int

	ViolationSeconds float64 // summed over tenants

	CacheHits   int64
	CacheMisses int64
	// Batches and BatchedReqs both count forward passes run — one per cache
	// miss. The frozen benchmark/ module reads them (ROADMAP 7(a)).
	Batches     int64
	BatchedReqs int64
}

// Stats aggregates the fleet's accounting. Call after Run (or between
// rounds from the driving goroutine).
func (f *Fleet) Stats() Stats {
	s := Stats{Rounds: f.rounds, Panics: f.panics}
	for _, t := range f.tenants {
		s.Ticks += t.ticks
		s.ViolationSeconds += t.violS
		s.BrownoutTransitions += t.bTrans
		if t.degraded {
			s.Degraded++
		}
	}
	s.CacheHits, s.CacheMisses, _ = f.svc.Cache.Stats()
	s.Batches, s.BatchedReqs = s.CacheMisses, s.CacheMisses
	return s
}

// Checkpoint writes one namespaced snapshot per live tenant into dir
// (tenant-<id>-<generation>.ckpt), so a whole fleet shares one checkpoint
// directory without collisions. It returns how many tenants were saved.
// Tenants without a store in dir yet get theirs from one listing of it:
// only a tenant's owner writes its files, so the listing stays current for
// every tenant this fleet owns.
func (f *Fleet) Checkpoint(dir string) (int, error) {
	var open []*Tenant
	var prefixes []string
	for _, t := range f.tenants {
		if !t.degraded && (t.ckpt == nil || t.ckpt.Dir != dir) {
			open = append(open, t)
			prefixes = append(prefixes, "tenant-"+sanitizeID(t.ID))
		}
	}
	if len(open) > 0 {
		stores, err := ckpt.NewNamespacedStores(dir, prefixes...)
		if err != nil {
			return 0, fmt.Errorf("fleet: %w", err)
		}
		for i, t := range open {
			t.ckpt = stores[i]
		}
	}
	saved := 0
	for _, t := range f.tenants {
		if t.degraded {
			continue
		}
		if err := f.CheckpointTenant(dir, t.ID); err != nil {
			return saved, err
		}
		saved++
	}
	return saved, nil
}

// CheckpointTenant writes one namespaced snapshot for a single tenant — the
// drain step of a planned migration. The tenant lists dir for its earlier
// generations once, at its first checkpoint there, and keeps that store
// while it lives in this fleet, so a checkpoint costs the same however many
// other tenants' files share the directory.
func (f *Fleet) CheckpointTenant(dir, id string) error {
	t := f.Tenant(id)
	if t == nil {
		return fmt.Errorf("fleet: unknown tenant %q", id)
	}
	if t.ckpt == nil || t.ckpt.Dir != dir {
		store, err := ckpt.NewNamespacedStore(dir, "tenant-"+sanitizeID(id))
		if err != nil {
			return fmt.Errorf("fleet: tenant %s: %w", id, err)
		}
		t.ckpt = store
	}
	t.saved.At, t.saved.Ticks = t.Eng.Now(), t.ticks
	t.Ctl.SnapshotInto(&t.saved.Controller)
	t.Cluster.SnapshotInto(&t.saved.Cluster)
	if _, _, err := t.ckpt.Save(&t.saved); err != nil {
		return fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	return nil
}

// VerifyAgainstSnapshot compares a tenant's live state digest against a
// snapshot — the migration verification step: after deterministic
// re-execution on the target shard, the rebuilt controller and cluster state
// must match what the source shard checkpointed. Gob bytes are not
// comparable (map ordering), so the comparison uses canonical JSON digests.
func (t *Tenant) VerifyAgainstSnapshot(snap *ckpt.Snapshot) error {
	if t.ticks != snap.Ticks {
		return fmt.Errorf("fleet: tenant %s: tick count %d != snapshot %d", t.ID, t.ticks, snap.Ticks)
	}
	liveC, err := core.StateDigest(t.Ctl.Snapshot())
	if err != nil {
		return fmt.Errorf("fleet: tenant %s: digest live controller: %w", t.ID, err)
	}
	snapC, err := core.StateDigest(snap.Controller)
	if err != nil {
		return fmt.Errorf("fleet: tenant %s: digest snapshot controller: %w", t.ID, err)
	}
	if liveC != snapC {
		return fmt.Errorf("fleet: tenant %s: controller state diverged from snapshot", t.ID)
	}
	return nil
}
