package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"graf"
	"graf/internal/app"
	"graf/internal/autoscale"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/obs"
	"graf/internal/rpc"
	"graf/internal/sim"
	wl "graf/internal/workload"
)

// Fixed experiment parameters. Every workload runs OnlineBoutique under a
// 250 ms SLO with a model trained for 50–300 req/s; tick parallelism is 2
// everywhere and never derived from the host's CPU count.
const (
	tickS       = 5.0  // simulated seconds per control interval
	sloS        = 0.25 // end-to-end p99 objective
	minRate     = 50.0
	maxRate     = 300.0
	parallelism = 2

	// The training budget is sized so that set-up fits three times in a run
	// (see README "Sizing"): a fixed seed, so every repetition of every run
	// trains the identical model.
	trainSamples = 800
	trainIters   = 400
	trainBatch   = 32
	trainSeed    = 1
)

// workload is one set of inputs the benchmark runs. A decision is one tenant
// control interval; a round advances every tenant by one interval.
type workload struct {
	name    string
	why     string
	tenants int
	warmup  int // untimed rounds after construction; part of set-up
	// roundsPerS sizes the timed phase: a repetition times
	// ceil(roundsPerS × seconds) rounds, which takes about a third of
	// --seconds on the 2-core sandbox the issue was probed on. The work is a
	// function of --seconds alone, never of how fast the host happens to be,
	// so the deterministic metrics repeat exactly.
	roundsPerS float64
	build      func(e *env) (instance, error)
}

// env is what one repetition is built from.
type env struct {
	app  *app.App
	tm   *graf.TrainedModel
	seed int64
	// tenants, warmup and rounds size the repetition; the workload's own
	// values except in the smoke test.
	tenants int
	warmup  int
	rounds  int
	dir     string      // scratch directory for this repetition, inside the checkout
	rec     *recorder   // nil when tracing is off
	tracer  *obs.Tracer // the repo's own tracer, nil when tracing is off
	taps    *taps       // outside-in counters, nil when tracing is off
}

// horizonS is the simulated time a repetition covers, warm start included.
func (e *env) horizonS() int { return 60 + int(tickS)*(e.warmup+e.rounds) + 10 }

// instance is one freshly built system under test.
type instance interface {
	// round runs round i (0-based, warm-up rounds first) and returns the wall
	// time of the program's own round call, plus that of any other call the
	// workload makes after it (a checkpoint, a migration). The driver is
	// closed-loop: it calls round i+1 only after round i returned.
	round(i int) (round, extra time.Duration, err error)
	// finish flushes and stops the system and reports what it produced.
	finish() (outcome, error)
}

// tenantOutcome is what one tenant left behind.
type tenantOutcome struct {
	id    string
	audit []byte
	violS float64
}

// outcome is the output of one repetition — what the correctness checks
// compare and what the simulated-cost metrics are computed from.
type outcome struct {
	tenants   []tenantOutcome // sorted by id
	coreHours float64         // simulated Σ realized quota × time
	requests  int             // simulated requests completed
	solves    int
	failed    int // missed decisions, shed ticks, lost decisions
	// counters are public counters of the layers (Fleet.Stats, Router.Stats)
	// and timings the instance took around calls that are not rounds.
	counters map[string]float64
	samples  map[string][]float64
}

// digest is the fnv-1a/64 fingerprint the shards report for an audit stream.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func tenantID(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// diurnal is the issue's day/night shape: Base 150, Amp 100, PeriodS 300.
//
// The first sample is rounded to a multiple of 5 req/s. Warm start provisions
// the cluster for rate(0) through app.PerServiceRate, which sums float
// products in map-iteration order; for a rate that is not "round" the sum —
// and with it every later boosted quota in the audit log — differs in the
// last ulp from one construction to the next, and the repetitions could not
// be required to agree byte for byte. At a multiple of 5 every partial sum is
// exact. The generator starts after the warm start and never reads rate(0).
func diurnal(seed int64, seconds int, phase float64) func(float64) float64 {
	series := wl.Diurnal(wl.DiurnalConfig{
		Seed: seed, Seconds: seconds, PeriodS: 300, Base: 150, Amp: 100, Phase: phase,
	})
	series[0] = 5 * math.Round(series[0]/5)
	return wl.SeriesRate(series, 1)
}

var workloads = []workload{
	{
		name:       "single_diurnal",
		why:        "one tenant, diurnal 50-250 rps, RunUntil then Controller.Step: solve and inference dominate, on the allocating PredictGrad path",
		tenants:    1,
		warmup:     0,
		roundsPerS: 15,
		build:      buildSingle,
	},
	{
		name:       "fleet_steady",
		why:        "8 tenants at constant rates: hysteresis holds, almost no solves, so wall time is simulator, telemetry, fleet scheduling and audit",
		tenants:    8,
		warmup:     30,
		roundsPerS: 8,
		build: func(e *env) (instance, error) {
			return buildFleet(e, func(i int) func(float64) float64 {
				return wl.ConstRate(100 + 15*float64(i))
			})
		},
	},
	{
		name:       "fleet_diurnal",
		why:        "the same fleet on phase-shifted diurnal rates: about two tenants solve in every round, all through the batcher and prediction cache",
		tenants:    8,
		warmup:     30,
		roundsPerS: 4,
		build: func(e *env) (instance, error) {
			return buildFleet(e, func(i int) func(float64) float64 {
				return diurnal(e.seed+int64(i), e.horizonS(), 2*math.Pi*float64(i)/8)
			})
		},
	},
	{
		name:       "rpc_plane",
		why:        "router over two HTTP shards, 16 light tenants, audit and checkpoints on disk: JSON, HTTP, fsync and router persistence are the largest share",
		tenants:    16,
		warmup:     20,
		roundsPerS: 6.5,
		build:      buildRPC,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- single_diurnal ---------------------------------------------------------

// singleInst is one tenant assembled exactly as fleet.buildTenant assembles
// it, except that the controller is not started on the engine's ticker: the
// driver alternates Eng.RunUntil and Controller.Step itself, so the two
// layers can be timed apart.
type singleInst struct {
	e     *env
	eng   *sim.Engine
	cl    *cluster.Cluster
	ctl   *core.Controller
	gen   *wl.OpenLoop
	tel   *obs.Telemetry
	audit bytes.Buffer

	violS      float64
	coreMilliS float64
}

func buildSingle(e *env) (instance, error) {
	s := &singleInst{e: e}
	s.eng = sim.NewEngine(e.seed)
	s.cl = cluster.New(s.eng, e.app, cluster.DefaultConfig())
	s.tel = obs.New(obs.Options{SpanRing: 64, AuditW: &s.audit, AuditMemory: 16})
	s.cl.Obs = obs.NewClusterObs(s.tel)

	rate := diurnal(e.seed, e.horizonS(), 0)
	autoscale.ProvisionProactive(s.cl, rate(0), 0.5)
	s.eng.RunUntil(60)

	ccfg := core.DefaultControllerConfig(sloS)
	ccfg.TrainedMinRate, ccfg.TrainedMaxRate = e.tm.MinRate, e.tm.MaxRate
	s.ctl = core.NewController(s.cl, e.taps.model(e.tm.Model, e.rec), core.NewAnalyzer(e.app), e.tm.Bounds, ccfg)
	s.ctl.Obs = obs.NewControllerObs(s.tel)
	s.tel.Flight.Record(obs.Record{
		Type: "header", At: s.eng.Now(), App: e.app.Name, SLO: ccfg.SLO,
		Services: e.app.ServiceNames(), Solver: core.SolverConfigMap(ccfg.Solver),
	})
	s.gen = wl.NewOpenLoop(s.cl, rate)
	s.gen.Start()
	return s, nil
}

func (s *singleInst) round(int) (time.Duration, time.Duration, error) {
	from := s.eng.Now()
	t0 := time.Now()
	sp := s.e.rec.begin("sim.RunUntil")
	s.eng.RunUntil(from + tickS)
	sp.end()
	sp = s.e.rec.begin("core.Step")
	s.ctl.Step()
	sp.end()
	d := time.Since(t0)
	if s.cl.E2EWindow().Quantile(0.99, from, from+tickS) > sloS {
		s.violS += tickS
	}
	s.coreMilliS += s.cl.TotalRealizedQuota() * tickS
	return d, 0, nil
}

func (s *singleInst) finish() (outcome, error) {
	s.tel.Flight.Flush()
	s.gen.Stop()
	audit := append([]byte(nil), s.audit.Bytes()...)
	return outcome{
		tenants:   []tenantOutcome{{id: tenantID(0), audit: audit, violS: s.violS}},
		coreHours: s.coreMilliS / 1000 / 3600,
		requests:  s.cl.E2EWindow().Len(),
		solves:    s.ctl.Solves(),
	}, nil
}

// --- fleet_steady, fleet_diurnal -------------------------------------------

type fleetInst struct {
	e          *env
	f          *fleet.Fleet
	coreMilliS float64
}

func buildFleet(e *env, rate func(i int) func(float64) float64) (instance, error) {
	cfg := fleet.Config{
		Workers: parallelism, Shards: parallelism, TickS: tickS, Seed: e.seed,
		WarmStart: true, Tracer: e.tracer,
	}
	for i := 0; i < e.tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, fleet.TenantConfig{ID: tenantID(i), Rate: rate(i)})
	}
	f, err := graf.NewFleet(e.app, e.tm, cfg)
	if err != nil {
		return nil, err
	}
	f.Start()
	return &fleetInst{e: e, f: f}, nil
}

func (fi *fleetInst) round(int) (time.Duration, time.Duration, error) {
	sp := fi.e.rec.begin("fleet.Round")
	t0 := time.Now()
	fi.f.Round()
	d := time.Since(t0)
	sp.end()
	for _, t := range fi.f.Tenants() {
		fi.coreMilliS += t.Cluster.TotalRealizedQuota() * tickS
	}
	return d, 0, nil
}

func (fi *fleetInst) finish() (outcome, error) {
	sp := fi.e.rec.begin("fleet.FlushAudit")
	t0 := time.Now()
	fi.f.FlushAudit()
	flush := time.Since(t0)
	sp.end()
	fi.f.Stop()
	out := fleetOutcome(fi.f, fi.e.warmup+fi.e.rounds)
	out.coreHours = fi.coreMilliS / 1000 / 3600
	out.samples = map[string][]float64{"audit_flush_ms": {ms(flush)}}
	return out, nil
}

// fleetOutcome reads a stopped fleet's public accounting.
func fleetOutcome(f *fleet.Fleet, rounds int) outcome {
	st := f.Stats()
	out := outcome{counters: map[string]float64{
		"cache_hits":   float64(st.CacheHits),
		"cache_misses": float64(st.CacheMisses),
		"batches":      float64(st.Batches),
		"batched_reqs": float64(st.BatchedReqs),
	}}
	for _, t := range f.Tenants() {
		audit := append([]byte(nil), t.AuditLog()...)
		out.tenants = append(out.tenants, tenantOutcome{id: t.ID, audit: audit, violS: t.ViolationSeconds()})
		out.requests += t.Cluster.E2EWindow().Len()
		out.solves += t.Ctl.Solves()
		out.failed += rounds - t.Ticks() // a degraded tenant stops deciding
	}
	return out
}

// --- rpc_plane --------------------------------------------------------------

// rpcInst is a router over two in-process shard servers on loopback HTTP,
// with audit logs, checkpoints and router state on disk.
type rpcInst struct {
	e       *env
	router  *rpc.Router
	shards  []*rpc.ShardServer
	servers []*http.Server // only when the handler is wrapped for tracing
	addrs   []string
	spec    rpc.Spec
	ids     []string

	ckptEvery, migrateAt int
	ckptMS               []float64
	blackoutMS           float64
}

func (e *env) bundle() rpc.ModelBundle {
	return rpc.ModelBundle{
		Model: e.tm.Model, Bounds: e.tm.Bounds, SLO: e.tm.SLO.Seconds(),
		MinRate: e.tm.MinRate, MaxRate: e.tm.MaxRate,
	}
}

func rpcSpec(e *env) rpc.Spec {
	return rpc.Spec{
		App: "online-boutique", Shape: "surge", Rate: 40, SurgeTo: 80,
		SurgeAtS: 60 + tickS*float64(e.warmup+e.rounds/2),
		Seed:     e.seed, TickS: tickS, WarmStart: true, Workers: 1,
		Trace: e.tracer != nil,
	}
}

func buildRPC(e *env) (instance, error) {
	r := &rpcInst{e: e, spec: rpcSpec(e)}
	for i := 0; i < e.tenants; i++ {
		r.ids = append(r.ids, tenantID(i))
	}
	// A checkpoint every sixth of the timed phase and one migration a third
	// of the way in: the issue's "every 25th of 150" and "at round 50",
	// scaled with the run length.
	r.ckptEvery = max(1, e.rounds/6)
	r.migrateAt = e.rounds / 3

	for range [parallelism]struct{}{} {
		s := &rpc.ShardServer{
			Bundle:   e.bundle(),
			CkptDir:  filepath.Join(e.dir, "ckpt"),
			AuditDir: filepath.Join(e.dir, "audit"),
		}
		r.shards = append(r.shards, s)
		if e.taps == nil {
			// Untraced: serve exactly as grafd -shard does.
			addr, err := s.Serve("127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, err
			}
			r.addrs = append(r.addrs, addr)
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		srv := &http.Server{Handler: e.taps.handler(s.Handler(), e.rec)}
		r.servers = append(r.servers, srv)
		r.addrs = append(r.addrs, ln.Addr().String())
		go srv.Serve(ln) // returns when close() closes the server
	}
	var err error
	r.router, err = rpc.NewRouter(rpc.RouterConfig{
		Spec: r.spec, Tenants: r.ids, StateDir: filepath.Join(e.dir, "router"), Tracer: e.tracer,
	}, r.addrs)
	if err != nil {
		r.close()
		return nil, err
	}
	if err := r.router.Bootstrap(); err != nil {
		r.close()
		return nil, err
	}
	// The router's consistent-hash ring (fnv-1a over "tenant-NN") puts all of
	// these IDs on one shard whatever the two addresses are, which would
	// leave the other shard idle. Rebalance with the program's own planned
	// migration, as an operator would: even tenants on shard 0, odd on 1.
	// The final placement is then the same in every run.
	for i, id := range r.ids {
		if want := r.addrs[i%parallelism]; r.router.Owner(id) != want {
			if _, err := r.router.Migrate(id, want); err != nil {
				r.close()
				return nil, fmt.Errorf("rpc_plane: rebalance %s: %w", id, err)
			}
		}
	}
	return r, nil
}

func (r *rpcInst) round(i int) (time.Duration, time.Duration, error) {
	sp := r.e.rec.begin("router.RunRound")
	t0 := time.Now()
	err := r.router.RunRound()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, 0, err
	}
	timed := i - r.e.warmup
	if timed < 0 {
		return d, 0, nil
	}
	var extra time.Duration
	if (timed+1)%r.ckptEvery == 0 {
		sp := r.e.rec.begin("router.CheckpointAll")
		t0 := time.Now()
		_, err := r.router.CheckpointAll()
		took := time.Since(t0)
		sp.end()
		if err != nil {
			return d, extra, fmt.Errorf("checkpoint after round %d: %w", i, err)
		}
		r.ckptMS = append(r.ckptMS, ms(took))
		extra += took
	}
	if timed == r.migrateAt {
		id := r.ids[0]
		to := r.addrs[0]
		if r.router.Owner(id) == to {
			to = r.addrs[1]
		}
		sp := r.e.rec.begin("router.Migrate")
		t0 := time.Now()
		blackout, err := r.router.Migrate(id, to)
		extra += time.Since(t0)
		sp.end()
		if err != nil {
			return d, extra, fmt.Errorf("migrate %s: %w", id, err)
		}
		r.blackoutMS = ms(blackout)
	}
	return d, extra, nil
}

func (r *rpcInst) finish() (outcome, error) {
	defer r.close()
	st := r.router.Stats()
	out := outcome{
		failed: st.ShedTicks + st.LostDecisions,
		counters: map[string]float64{
			"shed_ticks":        float64(st.ShedTicks),
			"lost_decisions":    float64(st.LostDecisions),
			"migrations":        float64(st.Migrations),
			"verified_restores": float64(st.VerifiedRestores),
		},
		samples: map[string][]float64{"checkpoint_all_ms": r.ckptMS, "migrate_blackout_ms": {r.blackoutMS}},
	}
	rounds := r.e.warmup + r.e.rounds
	for _, ts := range r.router.TenantStates() {
		// The durable-before-ack contract: what is on disk when the last
		// round has been acknowledged is the tenant's whole audit stream.
		audit, err := os.ReadFile(filepath.Join(r.shards[0].AuditDir, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil {
			return out, fmt.Errorf("rpc_plane: tenant %s audit file: %w", ts.ID, err)
		}
		if ts.AuditLen != len(audit) || ts.AuditFNV != digest(audit) {
			return out, fmt.Errorf("rpc_plane: tenant %s: router fingerprint (%d bytes) does not match the file on disk (%d bytes)",
				ts.ID, ts.AuditLen, len(audit))
		}
		out.tenants = append(out.tenants, tenantOutcome{id: ts.ID, audit: audit, violS: ts.ViolS})
		out.failed += rounds - ts.Ticks
	}
	if r.e.tracer != nil {
		// The shards' tracers live behind the protocol; read them back the
		// way grafrouter does.
		for _, addr := range r.addrs {
			resp, err := r.router.Client().Traces(addr)
			if err != nil {
				return out, fmt.Errorf("rpc_plane: traces from %s: %w", addr, err)
			}
			r.e.taps.shardSpans = append(r.e.taps.shardSpans, resp.Spans...)
		}
	}
	out.counters["ckpt_bytes_per_tenant"] = meanFileSize(r.shards[0].CkptDir, ".ckpt")
	return out, nil
}

// close stops both shards and waits for their servers to exit.
func (r *rpcInst) close() {
	for _, s := range r.shards {
		_ = s.Shutdown() // its error is the final checkpoint's; the run has its results by now
	}
	for _, srv := range r.servers {
		srv.Close()
	}
}

// meanFileSize is the mean size in bytes of dir's files with the suffix.
func meanFileSize(dir, suffix string) float64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "*"+suffix))
	total := 0.0
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			total += float64(fi.Size())
		}
	}
	if len(paths) == 0 {
		return 0
	}
	return total / float64(len(paths))
}

// rpcReference runs the rpc_plane spec in one static in-process fleet — the
// ground truth every distributed tenant's on-disk audit file must equal byte
// for byte. Its simulated cost (core-hours, requests, solves) is the
// distributed run's too, because the decisions are the same.
func rpcReference(e *env) (outcome, error) {
	spec := rpcSpec(e)
	spec.Trace = false
	// A traced run also times the durable-before-ack flush the shards do
	// inside every tick, which cannot be reached through the protocol: the
	// reference mirrors its audit to disk and flushes after each round.
	auditDir := ""
	if e.taps != nil {
		auditDir = filepath.Join(e.dir, "audit")
	}
	cfg, err := spec.FleetConfig(e.bundle(), auditDir)
	if err != nil {
		return outcome{}, err
	}
	cfg.Dynamic = false
	cfg.Workers, cfg.Shards = parallelism, parallelism
	for i := 0; i < e.tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, spec.TenantConfig(tenantID(i)))
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return outcome{}, err
	}
	f.Start()
	fi := &fleetInst{e: &env{warmup: e.warmup, rounds: e.rounds}, f: f}
	var flushMS []float64
	for i := 0; i < e.warmup+e.rounds; i++ {
		fi.round(i)
		if auditDir != "" {
			t0 := time.Now()
			f.FlushAudit()
			flushMS = append(flushMS, ms(time.Since(t0)))
		}
	}
	out, err := fi.finish()
	if auditDir != "" {
		out.samples["audit_flush_ms"] = flushMS
	}
	return out, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
