package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graf/internal/ckpt"
	"graf/internal/fleet"
	"graf/internal/obs"
	"graf/internal/overload"
)

// maxReplayTicks bounds how far past the router's tick count an admit
// replays to cover a dead owner's flushed-but-unreported decisions: a shard
// can only have been one round ahead, but partial flushes make the exact
// boundary fuzzy.
const maxReplayTicks = 4

// ShardServer exposes one dynamic fleet over the control-plane protocol.
// One mutex serializes all fleet-touching handlers — the fleet's dynamic
// API is single-owner by design, and the round cadence (one tick request
// per TickS of simulated time) leaves the lock uncontended. /healthz never
// takes the lock, so a slow round cannot read as a dead shard.
type ShardServer struct {
	// Bundle is the shard-local model artifact (same .graf file in every
	// process).
	Bundle ModelBundle
	// CkptDir is the shard's checkpoint store directory ("" = none). All
	// shards of one deployment share it: namespaced per-tenant files mean
	// no collisions, and a migration target finds the source's snapshot.
	CkptDir string
	// AuditDir mirrors per-tenant audit logs to disk ("" = in-memory).
	// Shared across shards for the same reason.
	AuditDir string
	// Tel, when set before Serve, exposes /metrics, /debug/vars and
	// /debug/pprof/* on the shard's own control-plane mux (the router
	// scrapes /metrics for federation), records per-operation durations,
	// and is handed to the fleet so graf_fleet_* series appear here too.
	Tel *obs.Telemetry
	// Logf, when set, receives one line per control-plane operation.
	Logf func(format string, args ...any)
	// MaxInflight bounds concurrently executing control-plane requests (the
	// admission gate; <=0 = overload.NewGate's default). Critical endpoints
	// (healthz, configure, admit, evict, checkpoint) are never shed; ticks
	// shed at full capacity; status reads first, at half.
	MaxInflight int
	// GovernorBudgetMS, when positive, drives the fleet's adaptive brownout
	// target from observed round wall times: rounds over this budget walk
	// every tenant one rung down the degradation ladder, calm rounds walk
	// them back up (0 = off).
	GovernorBudgetMS float64

	mu      sync.Mutex
	fl      *fleet.Fleet
	spec    Spec
	round   int
	started time.Time
	gov     *overload.Governor // lazily built from GovernorBudgetMS; guarded by mu

	tickStatuses []TenantStatus // handleTick's response, reused; guarded by mu

	gateOnce sync.Once
	gate     *overload.Gate

	// Overload accounting. expiredShed counts requests refused because their
	// propagated deadline had already passed; expiredExecuted is the
	// invariant tripwire — work that began executing past its deadline — and
	// must stay zero.
	expiredShed     atomic.Int64
	expiredExecuted atomic.Int64

	// Epoch fence (DESIGN.md §3k). epoch is the highest Graf-Epoch seen on
	// any mutating request; it only ever rises, and it rises under s.mu so a
	// stale-epoch request already queued on the mutex is re-checked against
	// the new fence before it can execute. fencedRejected counts stale
	// mutations refused; fencedAccepted is the invariant tripwire — a stale
	// mutation that executed anyway — and must stay zero (the failover drill
	// and CI assert it, mirroring expiredExecuted).
	epoch          atomic.Uint64
	fencedRejected atomic.Int64
	fencedAccepted atomic.Int64

	// trc is the control-plane tracer, created at configure time when the
	// spec enables tracing (atomic: /v1/traces reads it without s.mu).
	trc atomic.Pointer[obs.Tracer]

	// healthRound/healthTenants are atomic mirrors of round and tenant
	// count, refreshed by the mutating handlers via publishHealth, so
	// /healthz can answer without touching s.mu even while a long tick or
	// admit holds it past the probe timeout.
	healthRound   atomic.Int64
	healthTenants atomic.Int64

	srv *http.Server
	ln  net.Listener
}

// publishHealth refreshes the lock-free mirrors /healthz serves from.
// Callers must hold s.mu.
func (s *ShardServer) publishHealth() {
	n := 0
	if s.fl != nil {
		n = len(s.fl.Tenants())
	}
	s.healthRound.Store(int64(s.round))
	s.healthTenants.Store(int64(n))
}

func (s *ShardServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Handler returns the server's HTTP mux. Every route passes through the
// overload shield with its shedding priority: recovery-critical endpoints
// are never shed, ticks shed at full capacity, status reads first.
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.shielded("health", overload.PriCritical, s.handleHealth))
	mux.HandleFunc("POST /v1/configure", s.shielded("configure", overload.PriCritical, s.fenceFast("configure", s.handleConfigure)))
	mux.HandleFunc("POST /v1/admit", s.shielded("admit", overload.PriCritical, s.fenceFast("admit", s.handleAdmit)))
	mux.HandleFunc("POST /v1/evict", s.shielded("evict", overload.PriCritical, s.fenceFast("evict", s.handleEvict)))
	mux.HandleFunc("POST /v1/tick", s.shielded("tick", overload.PriHigh, s.fenceFast("tick", s.handleTick)))
	mux.HandleFunc("GET /v1/tenants", s.shielded("tenants", overload.PriLow, s.handleTenants))
	mux.HandleFunc("GET /v1/traces", s.shielded("traces", overload.PriLow, s.handleTraces))
	mux.HandleFunc("POST /v1/checkpoint", s.shielded("checkpoint", overload.PriCritical, s.fenceFast("checkpoint", s.handleCheckpoint)))
	if s.Tel != nil {
		th := s.Tel.Handler()
		mux.Handle("GET /metrics", th)
		mux.Handle("/debug/", th)
	}
	return mux
}

// admission returns the shard's admission gate, built on first use.
func (s *ShardServer) admission() *overload.Gate {
	s.gateOnce.Do(func() {
		s.gate = overload.NewGate(s.MaxInflight)
	})
	return s.gate
}

// shielded wraps a handler in the overload shield: (1) deadline shedding —
// a request whose propagated Graf-Deadline-Ms budget is already spent is
// refused with a typed 504 before any work happens, and an unexpired budget
// is re-anchored onto the request context so the handler can re-check after
// queueing; (2) admission control — the bounded-inflight gate sheds by
// priority with a typed 429 carrying a Retry-After hint. Both verdicts are
// backpressure, not failure: the client and router must not count them as
// transport failures or start recovery.
func (s *ShardServer) shielded(op string, pri overload.Priority, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rem, ok := overload.ParseRemaining(r.Header.Get(overload.HeaderDeadlineMS)); ok {
			if rem <= 0 {
				s.expiredShed.Add(1)
				s.countShed(op, "expired")
				writeJSON(w, http.StatusGatewayTimeout, errorResponse{
					Error:   fmt.Sprintf("%s: deadline expired before work started", op),
					Expired: true,
				})
				return
			}
			r = r.WithContext(overload.WithDeadline(r.Context(), time.Now().Add(rem)))
		}
		release, err := s.admission().Enter(pri)
		if err != nil {
			var ov *overload.ErrOverloaded
			errors.As(err, &ov)
			s.countShed(op, "overloaded")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{
				Error:        fmt.Sprintf("%s shed: %v", op, err),
				Overloaded:   true,
				RetryAfterMS: ov.RetryAfterMS,
			})
			return
		}
		defer release()
		h(w, r)
	}
}

// countShed records one shed verdict as a metric.
func (s *ShardServer) countShed(op, reason string) {
	if s.Tel == nil {
		return
	}
	s.Tel.Reg.Counter("graf_shard_shed_total",
		"Control-plane requests shed by admission control or deadline expiry.",
		obs.Labels{"op": op, "reason": reason}).Inc()
}

// guardExpired is the executed-past-deadline tripwire, called with the clock
// reading taken at the moment execution begins. The deadline shed in
// shielded/handleTick runs first on every path with the same reading, so
// this counter stays zero; the chaos invariant checker and the CI smoke
// drill assert exactly that — "no expired work executed" is a checked
// property, not an assumed one.
func (s *ShardServer) guardExpired(r *http.Request, startedAt time.Time) {
	if dl, ok := overload.DeadlineFrom(r.Context()); ok && !startedAt.Before(dl) {
		s.expiredExecuted.Add(1)
	}
}

// requestEpoch extracts the router generation's fencing token from the
// Graf-Epoch header. Absent or malformed means the caller is epoch-unaware
// (0, false): such requests pass the fence unchecked, preserving the
// pre-fencing protocol for tests and single-router deployments.
func requestEpoch(r *http.Request) (uint64, bool) {
	v := r.Header.Get(epochHeader)
	if v == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(v, 10, 64)
	if err != nil || e == 0 {
		return 0, false
	}
	return e, true
}

// fenceFast is the pre-lock fast path wrapped around every mutating route: a
// request already behind the fence is rejected without queueing on s.mu, so
// a zombie router cannot even add lock contention. Not sufficient alone —
// the authoritative check is fenceLocked, under the mutex, which closes the
// race where the fence rises while a stale request sits queued.
func (s *ShardServer) fenceFast(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e, ok := requestEpoch(r); ok && e < s.epoch.Load() {
			s.rejectFenced(w, op, e)
			return
		}
		h(w, r)
	}
}

// fenceLocked is the authoritative epoch check; every mutating handler calls
// it immediately after acquiring s.mu and returns without touching the fleet
// when it reports false. A higher epoch raises the fence (durably, best
// effort) in the same critical section the mutation runs in, which is what
// makes stale-write acceptance structurally impossible: once a new router
// generation's first mutation commits, every older generation's queued
// request re-checks against the raised fence before executing.
func (s *ShardServer) fenceLocked(w http.ResponseWriter, r *http.Request, op string) bool {
	e, ok := requestEpoch(r)
	if !ok {
		return true
	}
	if !s.raiseEpochLocked(e) {
		s.rejectFenced(w, op, e)
		return false
	}
	// Tripwire, mirroring guardExpired: re-derive the verdict at the moment
	// the mutation begins. With the raise and the mutation in one critical
	// section this never fires; the failover drill asserts exactly that.
	if e < s.epoch.Load() {
		s.fencedAccepted.Add(1)
	}
	return true
}

// raiseEpochLocked raises the fence to e (persisting it when a checkpoint
// dir exists) and reports whether e is current. Callers must hold s.mu — the
// fence must not rise concurrently with a mutation that already passed it.
func (s *ShardServer) raiseEpochLocked(e uint64) bool {
	cur := s.epoch.Load()
	if e < cur {
		return false
	}
	if e > cur {
		s.epoch.Store(e)
		s.logf("epoch fence raised %d -> %d", cur, e)
		if s.CkptDir != "" {
			// Best effort: the file is a shared fleet-wide floor a respawned
			// shard loads at startup, so even a fresh process rejects a
			// zombie router's writes. Atomic rename means never torn; a lost
			// write costs nothing because every live shard still holds the
			// fence in memory and the new router re-stamps every RPC.
			_ = os.MkdirAll(s.CkptDir, 0o755)
			_ = ckpt.WriteFileAtomic(filepath.Join(s.CkptDir, "epoch.fence"),
				[]byte(strconv.FormatUint(e, 10)), 0o644)
		}
	}
	return true
}

// loadEpochFence seeds the fence from the shared durable floor, if present.
func (s *ShardServer) loadEpochFence() {
	if s.CkptDir == "" {
		return
	}
	b, err := os.ReadFile(filepath.Join(s.CkptDir, "epoch.fence"))
	if err != nil {
		return
	}
	if e, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); err == nil && e > s.epoch.Load() {
		s.epoch.Store(e)
	}
}

// rejectFenced writes the typed 409 stale-epoch rejection.
func (s *ShardServer) rejectFenced(w http.ResponseWriter, op string, e uint64) {
	cur := s.epoch.Load()
	s.fencedRejected.Add(1)
	s.countFenced(op)
	s.logf("%s: fenced stale epoch %d (fence at %d)", op, e, cur)
	writeJSON(w, http.StatusConflict, errorResponse{
		Error:  fmt.Sprintf("%s: stale epoch %d, shard fence at %d (router lost leadership)", op, e, cur),
		Fenced: true,
		Epoch:  cur,
	})
}

// countFenced records one fenced rejection as a metric.
func (s *ShardServer) countFenced(op string) {
	if s.Tel == nil {
		return
	}
	s.Tel.Reg.Counter("graf_shard_fenced_total",
		"Stale-epoch mutations rejected by the shard's fence.",
		obs.Labels{"op": op}).Inc()
}

// traceOp continues the caller's trace server-side: it parses the
// traceparent header and opens a "shard/<op>" child span. Nil (a no-op)
// when tracing is not configured.
func (s *ShardServer) traceOp(r *http.Request, op string) *obs.ActiveSpan {
	tr := s.trc.Load()
	if tr == nil {
		return nil
	}
	parent, _ := obs.ParseTraceparent(r.Header.Get(traceparentHeader))
	return tr.StartChild(parent, "shard/"+op)
}

// observeOp records one handler's wall-clock cost.
func (s *ShardServer) observeOp(op string, start time.Time) {
	if s.Tel == nil {
		return
	}
	s.Tel.Reg.Histogram("graf_shard_op_seconds",
		"Wall-clock cost of shard control-plane operations.",
		nil, obs.Labels{"op": op}).Observe(time.Since(start).Seconds())
}

// Serve binds addr (host:port; port 0 picks a free one) and serves until
// Shutdown. It returns the bound address immediately; the accept loop runs
// in a background goroutine.
func (s *ShardServer) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.loadEpochFence()
	s.started = time.Now()
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains the shard: flush audit, checkpoint every tenant (when a
// checkpoint dir is configured), stop the fleet and close the listener — a
// routine restart is then indistinguishable from a warm restore.
func (s *ShardServer) Shutdown() error {
	s.mu.Lock()
	var err error
	if s.fl != nil {
		s.fl.FlushAudit()
		if s.CkptDir != "" {
			_, err = s.fl.Checkpoint(s.CkptDir)
		}
		s.fl.Stop()
		s.fl = nil
	}
	s.publishHealth()
	s.mu.Unlock()
	if s.srv != nil {
		s.srv.Close()
	}
	return err
}

// Addr returns the bound listen address ("" before Serve).
func (s *ShardServer) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// PID is the process the shard serves from — this one.
func (s *ShardServer) PID() int { return os.Getpid() }

// Kill closes the server abruptly — no flush, no checkpoint, no fleet stop:
// the in-process stand-in for SIGKILL. Whatever was durably mirrored before
// the last acknowledged tick is all a recovering router gets to work with,
// which is exactly the contract recovery is verified against.
func (s *ShardServer) Kill() {
	if s.srv != nil {
		s.srv.Close()
	}
}

// maxRequestBytes caps every request body a shard reads. The largest
// legitimate request is configure's Spec: its fixed fields encode to under
// 1 KB and each scripted brownout phase to about 40 bytes, so the cap holds
// a schedule of well over a thousand phases
// (TestRequestCapHoldsTheLargestSpec). A larger body is answered 413.
const maxRequestBytes = 64 << 10

// writeJSON answers v as JSON plus a newline, encoded in a pooled buffer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := getBodyBuf()
	defer putBodyBuf(b)
	b.enc.Encode(v)
	w.Header()[contentType] = jsonContent
	w.WriteHeader(status)
	w.Write(b.Bytes())
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes the request body into v through a pooled buffer, and
// answers 413 for a body over maxRequestBytes or 400 for one that does not
// decode. json.Unmarshal copies what it keeps, so v never aliases the buffer.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	b := getBodyBuf()
	defer putBodyBuf(b)
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
		return false
	}
	if err == nil {
		err = json.Unmarshal(b.Bytes(), v)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	return true
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Deliberately lock-free: round/tenant count are read from atomic
	// mirrors (possibly slightly stale), never from under s.mu — a tick or
	// admit holding the mutex past the probe timeout must not make a live
	// shard read as dead. s.started is written once before Serve starts the
	// accept loop, so reading it here is race-free.
	gs := s.admission().Stats()
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:              true,
		PID:             os.Getpid(),
		Round:           int(s.healthRound.Load()),
		Uptime:          time.Since(s.started).Truncate(time.Millisecond).String(),
		Tenants:         int(s.healthTenants.Load()),
		Inflight:        gs.Inflight,
		Shed:            gs.TotalShed(),
		ExpiredShed:     s.expiredShed.Load(),
		ExpiredExecuted: s.expiredExecuted.Load(),
		Epoch:           s.epoch.Load(),
		FencedRejected:  s.fencedRejected.Load(),
		FencedAccepted:  s.fencedAccepted.Load(),
	})
}

func (s *ShardServer) handleConfigure(w http.ResponseWriter, r *http.Request) {
	var req configureRequest
	if !readJSON(w, r, &req) {
		return
	}
	defer s.observeOp("configure", time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishHealth()
	if !s.fenceLocked(w, r, "configure") {
		return
	}
	if s.fl != nil && len(s.fl.Tenants()) > 0 {
		writeErr(w, http.StatusConflict, "shard already holds %d tenants; evict before reconfiguring", len(s.fl.Tenants()))
		return
	}
	cfg, err := req.Spec.FleetConfig(s.Bundle, s.AuditDir)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Spec.Trace {
		// The tracer seed derives from the fleet seed plus this shard's
		// address, so every process mints a disjoint deterministic ID stream.
		proc := "shard:" + s.Addr()
		s.trc.Store(obs.NewTracer(obs.TracerOptions{
			Seed: obs.DeriveTraceSeed(req.Spec.Seed, proc),
			Proc: proc,
		}))
	} else {
		s.trc.Store(nil)
	}
	cfg.Obs = s.Tel
	cfg.Tracer = s.trc.Load()
	if s.fl != nil {
		s.fl.Stop()
	}
	fl, err := fleet.New(cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.fl = fl
	s.spec = req.Spec
	s.round = 0
	s.logf("configured: app=%s seed=%d tick=%gs trace=%v", req.Spec.App, req.Spec.Seed, cfg.TickS, req.Spec.Trace)
	writeJSON(w, http.StatusOK, configureResponse{OK: true})
}

// withinHorizon reports whether n ticks of the fleet's quantum stay inside
// maxDurS of simulated time, and answers 400 when they do not: the fleet
// would run all of them under s.mu, which the caller holds.
func (s *ShardServer) withinHorizon(w http.ResponseWriter, what string, n int) bool {
	if simS := float64(n) * s.fl.TickS(); simS > maxDurS {
		writeErr(w, http.StatusBadRequest, "%s %d is %g simulated seconds, past the %d s bound", what, n, simS, maxDurS)
		return false
	}
	return true
}

func status(t *fleet.Tenant) TenantStatus {
	n, sum := t.AuditDigest()
	return TenantStatus{
		ID:       t.ID,
		Ticks:    t.Ticks(),
		P99:      t.LastP99(),
		ViolS:    t.ViolationSeconds(),
		Degraded: t.Degraded(),
		AuditLen: n,
		AuditFNV: sum,
		Brownout: int(t.Brownout()),
	}
}

// handleAdmit places a tenant, restoring it losslessly (fleet.Restore) when
// it lived before.
func (s *ShardServer) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req admitRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Ticks < 0 {
		writeErr(w, http.StatusBadRequest, "negative tick count")
		return
	}
	span := s.traceOp(r, "admit").SetAttr("ticks", float64(req.Ticks))
	defer span.End()
	defer s.observeOp("admit", time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishHealth()
	if !s.fenceLocked(w, r, "admit") {
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusConflict, "shard not configured")
		return
	}
	if !s.withinHorizon(w, "tick count", req.Ticks) {
		return
	}
	// Replay/fast-forward ticks executed during this admit nest under it.
	s.fl.SetTraceParent(span.Context())

	if t := s.fl.Tenant(req.ID); t != nil {
		// Idempotent retry: an earlier admit succeeded here but its response
		// was lost or timed out in flight, and the client retried. Returning
		// 409 would turn that lost response into a permanent bootstrap,
		// recovery, or migration failure even though the tenant is placed
		// correctly — instead fast-forward to the requested tick count if the
		// tenant is behind and report its current status.
		if t.Ticks() < req.Ticks {
			if err := s.fl.Resume(req.ID, req.Ticks); err != nil {
				writeErr(w, http.StatusInternalServerError, "resume: %v", err)
				return
			}
			s.fl.FlushAudit()
		}
		s.logf("admit %s ticks=%d: already resident at tick %d (idempotent retry)", req.ID, req.Ticks, t.Ticks())
		writeJSON(w, http.StatusOK, AdmitResponse{Status: status(t)})
		return
	}

	t, rep, err := s.fl.Restore(s.spec.TenantConfig(req.ID), req.Ticks, s.CkptDir, maxReplayTicks)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.fl.FlushAudit()
	resp := AdmitResponse{
		Status:     status(t),
		PriorBytes: rep.PriorBytes, PriorVerified: rep.PriorVerified,
		ReplayedTicks: rep.ReplayedTicks, SnapshotVerified: rep.SnapshotVerified,
	}
	s.logf("admit %s ticks=%d prior=%dB replayed=%d verified=%v/%v",
		req.ID, req.Ticks, resp.PriorBytes, resp.ReplayedTicks, resp.PriorVerified, resp.SnapshotVerified)
	writeJSON(w, http.StatusOK, resp)
}

func (s *ShardServer) handleEvict(w http.ResponseWriter, r *http.Request) {
	var req evictRequest
	if !readJSON(w, r, &req) {
		return
	}
	span := s.traceOp(r, "evict")
	defer span.End()
	defer s.observeOp("evict", time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishHealth()
	if !s.fenceLocked(w, r, "evict") {
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusConflict, "shard not configured")
		return
	}
	t := s.fl.Tenant(req.ID)
	if t == nil {
		// Idempotent retry: the tenant is already gone — an earlier evict
		// succeeded but its response was lost, and the client retried. A 404
		// here would fail a migration whose drain actually completed; report
		// success instead, flagged Missing so the caller knows the Status
		// carries no accounting.
		s.logf("evict %s: not resident (idempotent retry)", req.ID)
		writeJSON(w, http.StatusOK, EvictResponse{Missing: true, Status: TenantStatus{ID: req.ID}})
		return
	}
	if req.Checkpoint && s.CkptDir != "" {
		if err := s.fl.CheckpointTenant(s.CkptDir, req.ID); err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	st := status(t)
	if _, err := s.fl.Evict(req.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.logf("evict %s ticks=%d ckpt=%v", req.ID, st.Ticks, req.Checkpoint)
	writeJSON(w, http.StatusOK, EvictResponse{Status: st})
}

func (s *ShardServer) handleTick(w http.ResponseWriter, r *http.Request) {
	var req tickRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Round <= 0 {
		writeErr(w, http.StatusBadRequest, "round must be positive")
		return
	}
	span := s.traceOp(r, "tick").SetAttr("round", float64(req.Round))
	defer span.End()
	defer s.observeOp("tick", time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishHealth()
	if !s.fenceLocked(w, r, "tick") {
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusConflict, "shard not configured")
		return
	}
	if !s.withinHorizon(w, "round", req.Round) {
		return
	}
	// A tick that queued behind the mutex past its propagated deadline is
	// shed here, after the lock: nobody is waiting for its result anymore,
	// and RoundTo is idempotent catch-up — the next round's tick covers the
	// skipped work. One clock reading serves both the shed and the tripwire.
	now := time.Now()
	if dl, ok := overload.DeadlineFrom(r.Context()); ok && !now.Before(dl) {
		s.expiredShed.Add(1)
		s.countShed("tick", "expired")
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{
			Error:   fmt.Sprintf("tick round %d: deadline expired while queued", req.Round),
			Expired: true,
		})
		return
	}
	s.guardExpired(r, now)
	// Tenant tick spans executed by the worker pool nest under this span.
	s.fl.SetTraceParent(span.Context())
	s.fl.RoundTo(req.Round)
	s.round = req.Round
	if s.GovernorBudgetMS > 0 {
		if s.gov == nil {
			s.gov = overload.NewGovernor(s.GovernorBudgetMS)
		}
		wallMS := float64(time.Since(now)) / float64(time.Millisecond)
		if step, changed := s.gov.Observe(wallMS); changed {
			s.logf("governor: round %d took %.0fms, brownout target -> %v", req.Round, wallMS, step)
		}
		s.fl.SetBrownoutTarget(s.gov.Step())
	}
	// Durable-before-acknowledged: flush every tenant's on-disk audit log
	// before answering, so the file is never behind what the router knows.
	s.fl.FlushAudit()
	// The statuses reuse one slice: s.mu is held until writeJSON returns. A
	// shard with no tenants still answers null.
	resp := TickResponse{Round: req.Round}
	if tenants := s.fl.Tenants(); len(tenants) > 0 {
		s.tickStatuses = s.tickStatuses[:0]
		for _, t := range tenants {
			s.tickStatuses = append(s.tickStatuses, status(t))
		}
		resp.Statuses = s.tickStatuses
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *ShardServer) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fl == nil {
		writeErr(w, http.StatusConflict, "shard not configured")
		return
	}
	resp := TenantsResponse{}
	for _, t := range s.fl.Tenants() {
		resp.Statuses = append(resp.Statuses, status(t))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *ShardServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.trc.Load()
	writeJSON(w, http.StatusOK, TracesResponse{Proc: tr.Proc(), Spans: tr.Snapshot()})
}

func (s *ShardServer) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	span := s.traceOp(r, "checkpoint")
	defer span.End()
	defer s.observeOp("checkpoint", time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fenceLocked(w, r, "checkpoint") {
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusConflict, "shard not configured")
		return
	}
	if s.CkptDir == "" {
		writeErr(w, http.StatusConflict, "shard has no checkpoint directory")
		return
	}
	saved, err := s.fl.Checkpoint(s.CkptDir)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Saved: saved})
}
