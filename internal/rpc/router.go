package rpc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graf/internal/ckpt"
	"graf/internal/obs"
)

// RouterConfig parameterizes the control-plane router.
type RouterConfig struct {
	// Spec is the fleet description installed on every shard.
	Spec Spec
	// Tenants is the tenant ID population the router places.
	Tenants []string
	// RestartBudget bounds respawns per shard slot; once exhausted a dead
	// shard's tenants are reassigned to survivors instead (default 1).
	RestartBudget int
	// Respawn, when set, restarts a dead shard slot and returns the new
	// process's address. nil disables respawn (straight to reassignment).
	Respawn func(slot int) (addr string, err error)
	// RoundBudget, when positive, is the end-to-end wall budget each round's
	// tick fan-out must fit in. The router stamps the client with an absolute
	// deadline at fan-out start; every attempt forwards the remaining budget
	// on the wire (Graf-Deadline-Ms) and refuses attempts or backoff sleeps
	// that cannot fit. A tick the budget runs out on is SHED, not failed:
	// the round completes partially and the next round's idempotent RoundTo
	// catches the shard up. 0 = unbudgeted.
	RoundBudget time.Duration
	// StateDir, when set, makes the router crash-safe: ring membership,
	// placement, the round counter, migration-in-progress records, and
	// restart-budget counters are checkpointed into StateDir's "router"
	// namespace at round boundaries and every placement mutation, and the
	// router fences all mutating shard RPCs with a persisted epoch
	// (Graf-Epoch) that resumeRouter bumps on restore/takeover. "" keeps the
	// router in memory: no persistence, no fencing.
	StateDir string
	// Failpoint, when set, is consulted at named crash sites
	// ("migrate-after-drain"); returning an error aborts the operation
	// exactly as a SIGKILL would — no rollback, no cleanup — so crash-window
	// behavior is testable in-process. The process drill installs a
	// self-SIGKILL here instead. nil in production.
	Failpoint func(site string) error
	// Fault, when set, is installed into the client (chaos injection). The
	// client's backoff jitter is seeded from Spec.Seed.
	Fault FaultInjector
	// Obs, when set, receives router-level metrics: round duration and
	// failure counts, migration outcomes and blackout histograms, shard
	// deaths / respawns / reassignments and recovery blackout.
	Obs *obs.RouterObs
	// RPCObs, when set, is installed on the router's shard client so every
	// call records per-shard latency, retry, and breaker-state metrics.
	RPCObs *obs.RPCObs
	// Tracer, when set, roots a trace span around every round, migration,
	// and bootstrap; the span context rides each shard call's traceparent
	// header, so shard-side spans stitch into one cross-process trace.
	Tracer *obs.Tracer
	// Logf, when set, receives router progress lines.
	Logf func(format string, args ...any)
}

// A failure investigation probes a shard whose tick failed heartbeatMisses
// times, heartbeatEvery apart, before declaring it dead. /healthz answers
// from atomic mirrors, never under the fleet mutex, and Client.Health
// bypasses both the breaker and the fault injector, so a live shard answers
// every probe however long its round runs: a short cadence cannot make it
// look dead, and a real death is declared 40 ms after the failed tick.
// Every caller ran 3 misses; bench.planeDrill ran the 20 ms cadence.
const (
	heartbeatMisses = 3
	heartbeatEvery  = 20 * time.Millisecond
)

func (c RouterConfig) withDefaults() RouterConfig {
	if c.RestartBudget < 0 {
		c.RestartBudget = 0
	} else if c.RestartBudget == 0 {
		c.RestartBudget = 1
	}
	return c
}

// RouterStats aggregates a router run.
type RouterStats struct {
	Rounds             int
	Respawns           int
	Reassignments      int       // tenants moved off dead shards to survivors
	Migrations         int       // planned Migrate calls completed
	VerifiedRestores   int       // restores whose prior audit prefix matched
	SnapshotVerified   int       // restores verified against a checkpoint digest
	ReplayedTicks      int       // extra ticks replayed to cover flushed decisions
	LostDecisions      int       // restores that FAILED verification
	RecoveryBlackoutMS float64   // total wall ms tenants spent unplaced during failure recovery
	MigrationBlackouts []float64 // per-migration wall ms between evict and restored admit
	ShedTicks          int       // tick calls shed by overload protection or round budgets
	PartialRounds      int       // rounds completed with at least one shed tick
	PersistErrors      int       // router-state checkpoints that failed to land
}

// Router is the thin control-plane head: it owns tenant placement (ring +
// pins), drives the global round clock, health-checks shards, and recovers
// from shard loss by respawn or reassignment. It holds no tenant state that
// cannot be rebuilt from shard responses — the shards are the system of
// record, the router is the clock and the map.
//
// Its state is one placement value (persist.go): the placement methods
// decide, the drivers below execute every shard RPC, and commit persists.
//
// Locking: the round loop — RunRound, Migrate, Bootstrap, Settle, and the
// reconcile inside resumeRouter — is single-caller and the only writer of
// the placement and the stats. It writes them under r.mu (through commit
// wherever the change must be durable) and reads them without it; observers
// (Stats, Shards, Owner, TenantStates, Round) read under r.mu, so they are
// safe to call concurrently with the round loop. No shard RPC runs under
// r.mu.
type Router struct {
	cfg    RouterConfig
	client *Client
	p      placement
	stats  RouterStats
	mu     sync.Mutex

	// store is the durable generation store (nil when cfg.StateDir is
	// empty); saved is the snapshot commit last handed it, whose Opaque
	// buffer the next commit encodes into. fenced flips permanently when
	// any shard rejects this generation as stale — the router has lost
	// leadership and must stop mutating the fleet and the shared store.
	store  *ckpt.Store
	saved  ckpt.Snapshot
	fenced atomic.Bool

	// tickResps and tickErrs hold each live shard's answer to a round's
	// tick, by position in the live list, across rounds. Only tick, on the
	// round loop, touches them.
	tickResps []TickResponse
	tickErrs  []error
}

// NewRouter builds a router over the given shard addresses. Call Bootstrap
// to configure shards and place tenants.
func NewRouter(cfg RouterConfig, shardAddrs []string) (*Router, error) {
	if len(shardAddrs) == 0 {
		return nil, fmt.Errorf("rpc: router needs at least one shard")
	}
	p := &placement{}
	for i, addr := range shardAddrs {
		p.Slots = append(p.Slots, &ShardInfo{Slot: i, Addr: addr, Alive: true})
	}
	for _, id := range cfg.Tenants {
		i, dup := slices.BinarySearchFunc(p.Tenants, id, byID)
		if dup {
			return nil, fmt.Errorf("rpc: duplicate tenant %q", id)
		}
		p.Tenants = slices.Insert(p.Tenants, i, &tenantState{ID: id})
	}
	return newRouter(cfg, p)
}

// newRouter is the one constructor: over p, or — p nil — over the state
// persisted in cfg.StateDir.
func newRouter(cfg RouterConfig, p *placement) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, client: newClient(cfg.Spec.Seed, cfg.Fault)}
	r.client.Obs, r.client.Tracer = cfg.RPCObs, cfg.Tracer
	if cfg.StateDir != "" {
		var err error
		if r.store, err = ckpt.NewNamespacedStore(cfg.StateDir, "router"); err != nil {
			return nil, err
		}
		prev, err := loadRouterState(cfg.StateDir)
		if p == nil && err != nil {
			return nil, fmt.Errorf("rpc: nothing to resume: %w", err)
		}
		// A generation's epoch is one above its newest predecessor's, so the
		// shards' fences lock every predecessor out the moment this one first
		// writes.
		epoch := uint64(1)
		if prev != nil {
			epoch += prev.Epoch
		}
		if p == nil {
			p = prev
		}
		p.Epoch = epoch
		r.client.SetEpoch(epoch)
	}
	r.p = *p
	for _, s := range r.p.Slots {
		r.client.nameShard(s.Addr, s.Slot)
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Client returns the router's shard client (the chaos injector hangs off
// it).
func (r *Router) Client() *Client { return r.client }

// Epoch returns this router generation's fencing epoch (0 = fencing off —
// no StateDir configured). Immutable after construction.
func (r *Router) Epoch() uint64 { return r.p.Epoch }

// Fenced reports whether any shard has rejected this generation as stale —
// a newer router owns the fleet and this one must stop.
func (r *Router) Fenced() bool { return r.fenced.Load() }

// noteFenced latches the lost-leadership flag from an error (nil-safe) and
// reports whether err was a fencing rejection. A fenced router stops
// persisting immediately: its snapshots would overwrite its successor's in
// the shared store.
func (r *Router) noteFenced(err error) bool {
	if !IsFenced(err) {
		return false
	}
	if !r.fenced.Swap(true) {
		r.logf("router: FENCED at epoch %d — a newer generation owns the fleet", r.p.Epoch)
	}
	return true
}

// Stats returns a copy of the router's counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.MigrationBlackouts = append([]float64(nil), s.MigrationBlackouts...)
	return s
}

// Round returns the last completed round.
func (r *Router) Round() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p.Round
}

// TenantStates returns the router's tenant table, sorted by ID.
func (r *Router) TenantStates() []TenantStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantStatus, 0, len(r.p.Tenants))
	for _, t := range r.p.Tenants {
		out = append(out, TenantStatus{ID: t.ID, Ticks: t.Ticks, P99: t.p99, ViolS: t.violS, Degraded: t.degraded,
			AuditLen: t.AuditLen, AuditFNV: t.AuditFNV, Brownout: t.Brownout})
	}
	return out
}

// ShardInfo is one router slot. The slot survives the process: a respawn
// installs a new address into the same slot.
type ShardInfo struct {
	Slot     int
	Addr     string
	Alive    bool
	Respawns int
}

// Shards returns the current slot table: a driver uses it to resolve slot
// indices to live addresses (migration targets, chaos kill targets) and to
// report the end-of-run topology.
func (r *Router) Shards() []ShardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardInfo, 0, len(r.p.Slots))
	for _, s := range r.p.Slots {
		out = append(out, *s)
	}
	return out
}

// live returns the live shard addresses (placement.live under the lock).
func (r *Router) live() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p.live()
}

// Owner returns the shard address currently owning a tenant.
func (r *Router) Owner(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.p.tenant(id); t != nil {
		return t.Shard
	}
	return ""
}

// Bootstrap configures every shard with the spec and admits every tenant at
// its ring placement.
func (r *Router) Bootstrap() error {
	span := r.cfg.Tracer.StartRoot("router/bootstrap").
		SetAttr("shards", float64(len(r.p.Slots))).SetAttr("tenants", float64(len(r.p.Tenants)))
	defer span.End()
	for _, s := range r.Shards() {
		if err := r.client.Configure(s.Addr, r.cfg.Spec, span.Context()); err != nil {
			return fmt.Errorf("rpc: configure shard %d (%s): %w", s.Slot, s.Addr, err)
		}
	}
	if err := r.placeUnplaced(span.Context()); err != nil {
		return err
	}
	r.commit(func(*placement) {})
	r.logf("bootstrap: %d tenants across %d shards (epoch %d)", len(r.p.Tenants), len(r.p.Slots), r.p.Epoch)
	return nil
}

// place is the executor's one placement: it admits id on each candidate in
// turn and commits the first whose answer verifies (admit). If none does,
// the tenant is left unplaced for the next round's pass to re-place. won is
// the owner, "" when unplaced; err joins the candidates that failed, so it
// can be non-nil when a later candidate won.
func (r *Router) place(id string, parent obs.SpanContext, candidates ...string) (won string, err error) {
	var errs []error
	for _, addr := range candidates {
		st, err := r.admit(id, addr, parent)
		if err == nil {
			r.commit(func(p *placement) { p.tenant(id).Shard = addr; p.note(st) })
			return addr, errors.Join(errs...)
		}
		errs = append(errs, err)
	}
	r.update(func(p *placement) { p.tenant(id).Shard = "" })
	if len(errs) == 0 {
		errs = append(errs, fmt.Errorf("rpc: no live shard to place tenant %s", id))
	}
	return "", errors.Join(errs...)
}

// admit restores a tenant on a shard at its recorded tick count and
// verifies the response against the router's audit fingerprint baseline.
func (r *Router) admit(id, addr string, parent obs.SpanContext) (TenantStatus, error) {
	t := r.p.tenant(id)
	resp, err := r.client.Admit(addr, id, t.Ticks, parent)
	if err != nil {
		r.noteFenced(err)
		return resp.Status, fmt.Errorf("rpc: admit %s on %s: %w", id, addr, err)
	}
	if resp.Status.Ticks < t.Ticks {
		return resp.Status, fmt.Errorf("rpc: admit %s: shard reports %d ticks, router knows %d", id, resp.Status.Ticks, t.Ticks)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The restored stream must contain at least the bytes the router last
	// acknowledged; equality of the fingerprint is checked when tick counts
	// line up exactly.
	if resp.Status.Ticks == t.Ticks && t.AuditLen > 0 &&
		(resp.Status.AuditLen != t.AuditLen || resp.Status.AuditFNV != t.AuditFNV) {
		r.stats.LostDecisions++
		return resp.Status, fmt.Errorf("rpc: admit %s: audit fingerprint mismatch (len %d/%d fnv %x/%x) — lost decisions",
			id, resp.Status.AuditLen, t.AuditLen, resp.Status.AuditFNV, t.AuditFNV)
	}
	if resp.PriorVerified {
		r.stats.VerifiedRestores++
	}
	if resp.SnapshotVerified {
		r.stats.SnapshotVerified++
	}
	r.stats.ReplayedTicks += resp.ReplayedTicks
	return resp.Status, nil
}

// placeUnplaced places every tenant that has no owner — not yet
// bootstrapped, a failed migration whose rollback also failed, a reconcile
// orphan — at its ring home, so no tenant can stay silently stalled across
// rounds.
func (r *Router) placeUnplaced(parent obs.SpanContext) error {
	ids := r.p.orphans("")
	if len(ids) == 0 {
		return nil
	}
	ring := r.p.ring()
	for _, id := range ids {
		if _, err := r.place(id, parent, r.p.home(id, ring)...); err != nil {
			return err
		}
	}
	return nil
}

// RunRound advances every shard to the next absolute round, in parallel.
// A shard that fails its tick call (after the client's retries) is
// investigated with heartbeat probes and, if dead, recovered from — the
// round then completes on the post-recovery topology, so one lost shard
// never stalls the fleet.
func (r *Router) RunRound() error {
	r.update(func(p *placement) { p.Round++ })
	round := r.p.Round
	if err := r.placeUnplaced(obs.SpanContext{}); err != nil {
		return err
	}
	t0 := time.Now()
	failed, shed := 0, 0
	span := r.cfg.Tracer.StartRoot("router/round").SetAttr("round", float64(round))
	defer func() {
		span.SetAttr("failed", float64(failed)).SetAttr("shed", float64(shed)).End()
		if shed > 0 {
			r.update(func(*placement) { r.stats.ShedTicks += shed; r.stats.PartialRounds++ })
		}
		r.cfg.Obs.Round(time.Since(t0).Seconds(), len(r.p.live()), failed)
		r.cfg.Obs.Shed(shed)
	}()
	r.client.SetRound(round)
	if r.cfg.RoundBudget > 0 {
		// Stamp the round's end-to-end deadline; every shard call until the
		// clear forwards its remaining budget on the wire.
		r.client.SetDeadline(time.Now().Add(r.cfg.RoundBudget))
		defer r.client.SetDeadline(time.Time{})
	}
	for attempt := 0; ; attempt++ {
		failing, n, err := r.tick(round, span)
		if shed += n; err != nil {
			return err
		}
		if len(failing) == 0 {
			break
		}
		failed += len(failing)
		if attempt >= len(r.p.Slots)+1 {
			return fmt.Errorf("rpc: round %d: shards kept failing after %d recovery attempts", round, attempt)
		}
		for _, addr := range failing {
			span.Event("shard-failure", addr)
			if err := r.handleShardFailure(addr, span.Context()); err != nil {
				return err
			}
		}
		// Loop: re-tick the post-recovery topology. RoundTo is idempotent,
		// so shards that already completed this round are no-ops.
	}
	// Round boundary: the durable state now names a round every shard has
	// completed, so a successor resuming from it re-ticks at most one round
	// (idempotently) and never misses one.
	r.commit(func(*placement) { r.stats.Rounds++ })
	return nil
}

// tick fans one round out to the live shards — without r.mu, so observers
// keep working during a slow round — and folds in the answers. It returns
// the shards whose tick failed and the number of ticks shed.
func (r *Router) tick(round int, span *obs.ActiveSpan) (failed []string, shed int, err error) {
	live := r.live()
	if len(live) == 0 {
		return nil, 0, fmt.Errorf("rpc: round %d: no live shards", round)
	}
	if len(r.tickResps) < len(live) {
		r.tickResps, r.tickErrs = make([]TickResponse, len(live)), make([]error, len(live))
	}
	resps, errs := r.tickResps[:len(live)], r.tickErrs[:len(live)]
	var wg sync.WaitGroup
	for i, addr := range live {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = r.client.Tick(addr, round, &resps[i], span.Context())
		}(i, addr)
	}
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, addr := range live {
		switch e := errs[i]; {
		case e == nil:
			r.p.note(resps[i].Statuses...)
		case r.noteFenced(e):
			// Lost leadership: a newer router generation has taken over and
			// the shard fences this one out. Fatal, and deliberately not a
			// "failure" — investigating would find a perfectly healthy shard,
			// and retrying can never succeed. The process must stop driving
			// the fleet.
			err = fmt.Errorf("rpc: round %d: router lost leadership: %w", round, e)
		case isOverloaded(e) || isExpired(e) || errors.Is(e, errBudgetExhausted):
			// Shedding — an admission-control 429, a deadline-expiry 504, or
			// the client's own budget refusal — not shard death: the shard
			// is alive and deliberately refused (or we refused to send) this
			// round's work. The round completes partially — RoundTo is
			// idempotent catch-up, so the next round covers the skipped
			// ticks. Investigating would waste heartbeats and could respawn
			// a healthy shard.
			shed++
			span.Event("tick-shed", addr)
			r.logf("round %d: tick shed on %s: %v", round, addr, e)
		default:
			failed = append(failed, addr)
		}
	}
	return failed, shed, err
}

// handleShardFailure confirms a shard is dead with heartbeat probes, then
// recovers: respawn into the same slot while the restart budget lasts,
// otherwise reassign its tenants to the survivors' ring. Every orphan is
// restored at its last acknowledged tick count and byte-verified against its
// on-disk audit log — zero lost decisions.
func (r *Router) handleShardFailure(dead string, parent obs.SpanContext) error {
	slot := slices.IndexFunc(r.p.Slots, func(s *ShardInfo) bool { return s.Addr == dead })
	span := r.cfg.Tracer.StartChild(parent, "router/recover").SetTrack(dead)
	defer span.End()
	for probe := 0; probe < heartbeatMisses; probe++ {
		if probe > 0 {
			time.Sleep(heartbeatEvery)
		}
		if _, err := r.client.Health(dead, span.Context()); err == nil {
			// Alive after all — a slow round, a transient partition, or a
			// breaker that opened during a blip. The successful probe has
			// closed the breaker (Client.Health records it), so the caller's
			// re-tick reaches the shard: an open breaker would fail every
			// re-tick instantly with errBreakerOpen until its cooldown
			// elapsed, burning through the recovery-attempt bound in
			// milliseconds and aborting the round over a survivable transient.
			r.logf("shard %d (%s): unresponsive but heartbeat ok; breaker reset", slot, dead)
			return nil
		}
	}
	r.logf("shard %d (%s): declared dead after %d missed heartbeats", slot, dead, heartbeatMisses)
	span.Event("declared-dead", dead)
	var orphans []string
	r.commit(func(p *placement) { // membership change: the slot leaves the ring
		p.Slots[slot].Alive = false
		orphans = p.orphans(dead)
	})
	t0 := time.Now()
	respawned, reassigned := false, 0
	defer func() {
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.update(func(*placement) { r.stats.RecoveryBlackoutMS += ms })
		r.cfg.Obs.ShardDeath(respawned, reassigned, ms)
		span.SetAttr("orphans", float64(len(orphans))).SetAttr("blackout_ms", ms)
		r.logf("shard %d: recovery of %d tenants took %.1fms", slot, len(orphans), ms)
	}()
	addr, err := r.respawn(slot, dead, span)
	if err != nil {
		return err
	}
	ring := r.p.ring()
	for _, id := range orphans {
		home := []string{addr}
		if addr == "" {
			home = r.p.home(id, ring)
		}
		if len(home) == 0 {
			return fmt.Errorf("rpc: shard %d dead and no survivors to reassign %d tenants to", slot, len(orphans))
		}
		if _, err := r.place(id, span.Context(), home...); err != nil {
			return err
		}
		if addr == "" {
			// A pinned tenant lost its pin target: it is back on the ring.
			r.update(func(p *placement) { p.tenant(id).Pinned = false; r.stats.Reassignments++ })
			reassigned++
			r.logf("tenant %s: reassigned %s → %s at tick %d", id, dead, home[0], r.p.tenant(id).Ticks)
		}
	}
	if respawned = addr != ""; respawned {
		span.Event("respawned", addr)
		r.logf("shard %d: respawned at %s, %d tenants restored", slot, addr, len(orphans))
	}
	return nil
}

// respawn restarts a dead slot's process while its restart budget lasts and
// commits the new address into the slot. "" with a nil error means no
// respawn: the budget is spent or the respawn failed, so reassign instead.
func (r *Router) respawn(slot int, dead string, span *obs.ActiveSpan) (string, error) {
	if r.cfg.Respawn == nil || r.p.Slots[slot].Respawns >= r.cfg.RestartBudget {
		return "", nil
	}
	r.update(func(p *placement) { p.Slots[slot].Respawns++; r.stats.Respawns++ })
	addr, err := r.cfg.Respawn(slot)
	if err != nil {
		r.logf("shard %d: respawn failed (%v); falling back to reassignment", slot, err)
		return "", nil
	}
	r.client.ResetBreaker(dead)
	r.client.ResetBreaker(addr)
	r.client.nameShard(addr, slot)
	if err := r.client.Configure(addr, r.cfg.Spec, span.Context()); err != nil {
		return "", fmt.Errorf("rpc: configure respawned shard %d (%s): %w", slot, addr, err)
	}
	r.commit(func(p *placement) { // membership change: the respawned address joins the ring
		p.Slots[slot].Addr, p.Slots[slot].Alive = addr, true
	})
	return addr, nil
}

// Migrate moves one tenant to an explicit shard address: drain (evict with
// checkpoint) on the source, rebuild + fast-forward on the target, verify
// the audit fingerprint matches exactly. The tenant is pinned to the target
// afterwards. Returns the migration blackout (wall time the tenant was
// unplaced). If the restore fails after a successful drain, the tenant is
// rolled back onto its source shard (or any survivor) so it is never left
// running nowhere; if even that fails, it is marked unplaced and re-placed
// at the start of the next round.
func (r *Router) Migrate(id, toAddr string) (time.Duration, error) {
	span := r.cfg.Tracer.StartRoot("router/migrate").SetTrack(id)
	outcome, ms := "error", 0.0 // a blackout is only meaningful for "ok"
	defer func() {
		span.End()
		if outcome != "" {
			r.cfg.Obs.Migration(outcome, ms)
		}
	}()
	t := r.p.tenant(id)
	if t == nil {
		return 0, fmt.Errorf("rpc: unknown tenant %q", id)
	}
	from, candidates := t.Shard, r.p.migrateTo(id, toAddr)
	switch {
	case from == toAddr:
		outcome = "" // no-op move, nothing to count
		return 0, nil
	case len(candidates) == 0 || candidates[0] != toAddr:
		return 0, fmt.Errorf("rpc: migration target %s is not a live shard", toAddr)
	}

	t0 := time.Now()
	// Persist the migration intent before the drain and mark it drained
	// after: whichever side of the crash window the router dies on, the
	// record tells its successor exactly how to finish the move (reconcile
	// rolls a drained migration forward onto the target, whose shared audit
	// log and checkpoint are intact).
	r.commit(func(p *placement) { p.Migration = &migrationRecord{Tenant: id, From: from, To: toAddr} })
	var drained []TenantStatus
	if from != "" {
		ev, err := r.client.Evict(from, id, true, span.Context())
		if err != nil {
			r.noteFenced(err)
			r.commit(func(p *placement) { p.Migration = nil })
			return 0, fmt.Errorf("rpc: migrate %s: drain: %w", id, err)
		}
		if !ev.Missing {
			drained = append(drained, ev.Status)
		}
	}
	r.commit(func(p *placement) { p.note(drained...); p.Migration.Drained = true })
	if r.cfg.Failpoint != nil {
		// The crash site the failover drill aims at: drained but not yet
		// restored. A non-nil error emulates SIGKILL — return with no
		// rollback and the migration record still persisted, exactly the
		// state a real dead process leaves behind.
		if err := r.cfg.Failpoint("migrate-after-drain"); err != nil {
			outcome = "" // the drill kills the process; nothing to count
			return 0, err
		}
	}
	won, err := r.place(id, span.Context(), candidates...)
	d := time.Since(t0)
	r.commit(func(p *placement) {
		if p.Migration = nil; won == toAddr {
			outcome, ms = "ok", float64(d.Nanoseconds())/1e6
			t.Pinned = true
			r.stats.Migrations++
			r.stats.MigrationBlackouts = append(r.stats.MigrationBlackouts, ms)
		}
	})
	switch won {
	case "":
		return 0, fmt.Errorf("rpc: migrate %s: restore and rollback failed; tenant unplaced until next round: %w", id, err)
	case toAddr:
		span.SetAttr("blackout_ms", ms)
		r.logf("tenant %s: migrated %s → %s at tick %d in %.1fms", id, from, toAddr, t.Ticks, ms)
		return d, nil
	}
	r.logf("tenant %s: migration to %s failed; rolled back to %s", id, toAddr, won)
	return 0, fmt.Errorf("rpc: migrate %s: restore: %w (rolled back to %s)", id, err, won)
}

// Settle re-ticks the current round with no deadline so shards whose ticks
// were shed catch up. It does NOT advance the round — RoundTo is idempotent,
// so shards that already completed it are no-ops and the per-tenant audit
// streams stay byte-comparable to an unshed run. Call it before reading
// final per-tenant state after budgeted rounds.
func (r *Router) Settle() error {
	round := r.p.Round
	if round == 0 {
		return nil
	}
	r.client.SetDeadline(time.Time{})
	for _, addr := range r.live() {
		// A breaker left open by a budget-starved burst is stale state here:
		// settling runs with no deadline, so probe the shard directly instead
		// of failing fast on the burst's verdict.
		r.client.ResetBreaker(addr)
	}
	failed, shed, err := r.tick(round, nil)
	if err == nil && len(failed)+shed > 0 {
		err = fmt.Errorf("rpc: settle round %d: %d shards failed, %d shed", round, len(failed), shed)
	}
	return err
}

// CheckpointAll snapshots every live shard's tenants.
func (r *Router) CheckpointAll() (int, error) {
	total := 0
	for _, addr := range r.live() {
		resp, err := r.client.Checkpoint(addr)
		if err != nil {
			r.noteFenced(err)
			return total, err
		}
		total += resp.Saved
	}
	return total, nil
}
