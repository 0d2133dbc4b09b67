package rpc

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	// Client tunes call discipline (timeouts, retries, breakers).
	Client ClientConfig
	// VNodes is the consistent-hash virtual-node count (default 64).
	VNodes int
	// HeartbeatMisses is how many consecutive failed health probes declare
	// a shard dead (default 3).
	HeartbeatMisses int
	// HeartbeatEvery spaces the probes of a failure investigation
	// (default 100ms).
	HeartbeatEvery time.Duration
	// RestartBudget bounds respawns per shard slot; once exhausted a dead
	// shard's tenants are reassigned to survivors instead (default 1).
	RestartBudget int
	// Respawn, when set, restarts a dead shard slot and returns the new
	// process's address. nil disables respawn (straight to reassignment).
	Respawn func(slot int) (addr string, err error)
	// CheckpointEveryRounds periodically checkpoints every shard
	// (0 = only on demand).
	CheckpointEveryRounds int
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
	// (Graf-Epoch) that ResumeRouter bumps on restore/takeover. "" keeps the
	// PR-6 in-memory router: no persistence, no fencing.
	StateDir string
	// Failpoint, when set, is consulted at named crash sites
	// ("migrate-after-drain"); returning an error aborts the operation
	// exactly as a SIGKILL would — no rollback, no cleanup — so crash-window
	// behavior is testable in-process. The process drill installs a
	// self-SIGKILL here instead. nil in production.
	Failpoint func(site string) error
	// Fault, when set, is installed into the client (chaos injection).
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

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.RestartBudget < 0 {
		c.RestartBudget = 0
	} else if c.RestartBudget == 0 {
		c.RestartBudget = 1
	}
	return c
}

// tenantState is the router's authoritative record of one tenant: where it
// lives and the last acknowledged tick count and audit fingerprint — the
// baseline every recovery and migration is verified against.
type tenantState struct {
	id       string
	shard    string // current owner address
	pinned   bool   // placed by Migrate, exempt from ring lookup
	ticks    int
	auditLen int
	auditFNV uint64
	degraded bool
	p99      float64
	violS    float64
	brownout int // last reported degradation-ladder rung (0=full)
}

// shardSlot is one shard position the router manages. The slot survives the
// process: a respawn installs a new address into the same slot.
type shardSlot struct {
	slot     int
	addr     string
	alive    bool
	respawns int
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
// Locking: r.mu guards every mutable field — the tenant table, the slot
// table (addr/alive/respawns), the ring, the round counter, and the stats —
// so observers (Stats, Shards, Owner, TenantStates, Round) are safe to call
// concurrently with the round loop. The round loop itself is single-caller:
// RunRound/Migrate/Bootstrap must not be invoked concurrently with each
// other. Placement round-trips (placeTenant) run under the lock; the tick
// fan-out does not.
type Router struct {
	cfg     RouterConfig
	client  *Client
	ring    *Ring
	slots   []*shardSlot
	tenants map[string]*tenantState
	round   int
	stats   RouterStats
	mu      sync.Mutex

	// Crash safety (nil/zero when cfg.StateDir is empty). store is the
	// durable generation store; epoch is this router generation's fencing
	// token (immutable after construction); migration is the in-flight
	// migration record, persisted so a successor can roll it forward or
	// back. fenced flips permanently when any shard rejects this generation
	// as stale — the router has lost leadership and must stop mutating the
	// fleet and the shared store.
	store     *ckpt.Store
	epoch     uint64
	migration *migrationRecord
	fenced    atomic.Bool
}

// NewRouter builds a router over the given shard addresses. Call Bootstrap
// to configure shards and place tenants.
func NewRouter(cfg RouterConfig, shardAddrs []string) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(shardAddrs) == 0 {
		return nil, fmt.Errorf("rpc: router needs at least one shard")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		client:  NewClient(cfg.Client, cfg.Fault),
		ring:    NewRing(cfg.VNodes),
		tenants: map[string]*tenantState{},
	}
	r.client.Obs = cfg.RPCObs
	r.client.Tracer = cfg.Tracer
	if cfg.StateDir != "" {
		store, err := openRouterStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		r.store = store
		// A fresh router over a state dir with history is a new generation:
		// its epoch must exceed every predecessor's so the shards' fences
		// lock all of them out the moment this one first writes.
		r.epoch = 1
		if prev, err := loadRouterState(cfg.StateDir); err == nil {
			r.epoch = prev.Epoch + 1
		}
		r.client.SetEpoch(r.epoch)
	}
	for i, addr := range shardAddrs {
		r.slots = append(r.slots, &shardSlot{slot: i, addr: addr, alive: true})
		r.client.nameShard(addr, i)
		r.ring.Add(addr)
	}
	for _, id := range cfg.Tenants {
		if r.tenants[id] != nil {
			return nil, fmt.Errorf("rpc: duplicate tenant %q", id)
		}
		r.tenants[id] = &tenantState{id: id}
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
func (r *Router) Epoch() uint64 { return r.epoch }

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
		r.logf("router: FENCED at epoch %d — a newer generation owns the fleet", r.epoch)
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
	return r.round
}

// TenantStates returns a sorted snapshot of the router's tenant table.
func (r *Router) TenantStates() []TenantStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantStatus, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, TenantStatus{
			ID: t.id, Ticks: t.ticks, P99: t.p99, ViolS: t.violS,
			Degraded: t.degraded, AuditLen: t.auditLen, AuditFNV: t.auditFNV,
			Brownout: t.brownout,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ShardInfo is a read-only view of one router slot.
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
	out := make([]ShardInfo, 0, len(r.slots))
	for _, s := range r.slots {
		out = append(out, ShardInfo{Slot: s.slot, Addr: s.addr, Alive: s.alive, Respawns: s.respawns})
	}
	return out
}

// Owner returns the shard address currently owning a tenant.
func (r *Router) Owner(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.tenants[id]; t != nil {
		return t.shard
	}
	return ""
}

// Bootstrap configures every shard with the spec and admits every tenant at
// its ring placement.
func (r *Router) Bootstrap() error {
	var span *obs.ActiveSpan
	if r.cfg.Tracer != nil {
		span = r.cfg.Tracer.StartRoot("router/bootstrap").
			SetAttr("shards", float64(len(r.slots))).
			SetAttr("tenants", float64(len(r.tenants)))
	}
	defer span.End()
	for _, s := range r.Shards() {
		if err := r.client.Configure(s.Addr, r.cfg.Spec, span.Context()); err != nil {
			return fmt.Errorf("rpc: configure shard %d (%s): %w", s.Slot, s.Addr, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.tenants))
	for id := range r.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		addr := r.ring.Lookup(id)
		if err := r.placeTenant(id, addr, span.Context()); err != nil {
			return err
		}
	}
	r.persistLocked()
	r.logf("bootstrap: %d tenants across %d shards (epoch %d)", len(ids), len(r.slots), r.epoch)
	return nil
}

// placeTenant admits a tenant on a shard at its recorded tick count and
// verifies the response against the router's audit fingerprint baseline.
// Callers must hold r.mu (the admit round-trip happens under the lock —
// placement is serialized by design, and observers block only on Stats-style
// reads, never on the data path).
func (r *Router) placeTenant(id, addr string, parent ...obs.SpanContext) error {
	t := r.tenants[id]
	resp, err := r.client.Admit(addr, id, t.ticks, parent...)
	if err != nil {
		r.noteFenced(err)
		return fmt.Errorf("rpc: admit %s on %s: %w", id, addr, err)
	}
	if resp.Status.Ticks < t.ticks {
		return fmt.Errorf("rpc: admit %s: shard reports %d ticks, router knows %d", id, resp.Status.Ticks, t.ticks)
	}
	// The restored stream must contain at least the bytes the router last
	// acknowledged; equality of the fingerprint is checked when tick counts
	// line up exactly.
	if resp.Status.Ticks == t.ticks && t.auditLen > 0 {
		if resp.Status.AuditLen != t.auditLen || resp.Status.AuditFNV != t.auditFNV {
			r.stats.LostDecisions++
			return fmt.Errorf("rpc: admit %s: audit fingerprint mismatch (len %d/%d fnv %x/%x) — lost decisions",
				id, resp.Status.AuditLen, t.auditLen, resp.Status.AuditFNV, t.auditFNV)
		}
	}
	if resp.PriorVerified {
		r.stats.VerifiedRestores++
	}
	if resp.SnapshotVerified {
		r.stats.SnapshotVerified++
	}
	r.stats.ReplayedTicks += resp.ReplayedTicks
	t.shard = addr
	r.noteStatus(resp.Status)
	r.persistLocked()
	return nil
}

func (r *Router) noteStatus(st TenantStatus) {
	t := r.tenants[st.ID]
	if t == nil {
		return
	}
	t.ticks = st.Ticks
	t.auditLen = st.AuditLen
	t.auditFNV = st.AuditFNV
	t.degraded = st.Degraded
	t.p99 = st.P99
	t.violS = st.ViolS
	t.brownout = st.Brownout
}

// aliveSlotsLocked returns the live shard slots. Callers must hold r.mu.
func (r *Router) aliveSlotsLocked() []*shardSlot {
	var out []*shardSlot
	for _, s := range r.slots {
		if s.alive {
			out = append(out, s)
		}
	}
	return out
}

// aliveAddrs snapshots the live shard addresses.
func (r *Router) aliveAddrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, s := range r.slots {
		if s.alive {
			out = append(out, s.addr)
		}
	}
	return out
}

// placeUnplacedLocked re-places any tenant that currently has no owner (a
// failed migration whose rollback also failed) onto its ring shard, so no
// tenant can stay silently stalled across rounds. Callers must hold r.mu.
func (r *Router) placeUnplacedLocked() error {
	var ids []string
	for id, t := range r.tenants {
		if t.shard == "" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		target := r.ring.Lookup(id)
		if target == "" {
			return fmt.Errorf("rpc: no live shards to place tenant %s", id)
		}
		if err := r.placeTenant(id, target); err != nil {
			return err
		}
		r.logf("tenant %s: re-placed on %s after failed migration", id, target)
	}
	return nil
}

// RunRounds advances the whole fleet n rounds.
func (r *Router) RunRounds(n int) error {
	for i := 0; i < n; i++ {
		if err := r.RunRound(); err != nil {
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
	r.mu.Lock()
	r.round++
	round := r.round
	err := r.placeUnplacedLocked()
	r.mu.Unlock()
	if err != nil {
		return err
	}
	t0 := time.Now()
	totalFailed := 0
	totalShed := 0
	var span *obs.ActiveSpan
	if r.cfg.Tracer != nil {
		span = r.cfg.Tracer.StartRoot("router/round").SetAttr("round", float64(round))
	}
	defer func() {
		span.SetAttr("failed", float64(totalFailed)).SetAttr("shed", float64(totalShed)).End()
		r.mu.Lock()
		alive := len(r.aliveSlotsLocked())
		if totalShed > 0 {
			r.stats.ShedTicks += totalShed
			r.stats.PartialRounds++
		}
		r.mu.Unlock()
		r.cfg.Obs.Round(time.Since(t0).Seconds(), alive, totalFailed)
		r.cfg.Obs.Shed(totalShed)
	}()
	r.client.SetRound(round)
	if r.cfg.RoundBudget > 0 {
		// Stamp the round's end-to-end deadline; every shard call until the
		// clear forwards its remaining budget on the wire.
		r.client.SetDeadline(time.Now().Add(r.cfg.RoundBudget))
		defer r.client.SetDeadline(time.Time{})
	}
	if r.cfg.CheckpointEveryRounds > 0 && round > 1 && (round-1)%r.cfg.CheckpointEveryRounds == 0 {
		for _, addr := range r.aliveAddrs() {
			if _, err := r.client.Checkpoint(addr, span.Context()); err != nil {
				r.logf("round %d: checkpoint %s: %v", round, addr, err)
			}
		}
	}

	for attempt := 0; ; attempt++ {
		// Snapshot the live topology under the lock; the tick fan-out itself
		// must not hold r.mu (observers keep working during a slow round).
		type target struct {
			slot *shardSlot
			addr string
		}
		r.mu.Lock()
		var alive []target
		for _, s := range r.slots {
			if s.alive {
				alive = append(alive, target{slot: s, addr: s.addr})
			}
		}
		r.mu.Unlock()
		if len(alive) == 0 {
			return fmt.Errorf("rpc: round %d: no live shards", round)
		}
		type result struct {
			slot *shardSlot
			resp TickResponse
			err  error
		}
		results := make([]result, len(alive))
		var wg sync.WaitGroup
		for i, tgt := range alive {
			wg.Add(1)
			go func(i int, tgt target) {
				defer wg.Done()
				resp, err := r.client.Tick(tgt.addr, round, span.Context())
				results[i] = result{slot: tgt.slot, resp: resp, err: err}
			}(i, tgt)
		}
		wg.Wait()

		var failed []*shardSlot
		var fencedErr error
		r.mu.Lock()
		for _, res := range results {
			if res.err != nil {
				if r.noteFenced(res.err) {
					// Lost leadership: a newer router generation has taken
					// over and the shard fences this one out. Fatal, and
					// deliberately not a "failure" — investigating would
					// find a perfectly healthy shard, and retrying can never
					// succeed. The process must stop driving the fleet.
					fencedErr = res.err
					continue
				}
				if isShedErr(res.err) {
					// Backpressure or budget exhaustion, not shard death: the
					// shard is alive and deliberately refused (or we refused to
					// send) this round's work. The round completes partially —
					// RoundTo is idempotent catch-up, so the next round covers
					// the skipped ticks. Investigating would waste heartbeats
					// and could respawn a healthy shard.
					totalShed++
					span.Event("tick-shed", res.slot.addr)
					r.logf("round %d: tick shed on %s: %v", round, res.slot.addr, res.err)
					continue
				}
				failed = append(failed, res.slot)
				continue
			}
			for _, st := range res.resp.Statuses {
				r.noteStatus(st)
			}
		}
		r.mu.Unlock()
		if fencedErr != nil {
			return fmt.Errorf("rpc: round %d: router lost leadership: %w", round, fencedErr)
		}
		if len(failed) == 0 {
			break
		}
		totalFailed += len(failed)
		if attempt >= len(r.slots)+1 {
			return fmt.Errorf("rpc: round %d: shards kept failing after %d recovery attempts", round, attempt)
		}
		for _, s := range failed {
			span.Event("shard-failure", s.addr)
			if err := r.handleShardFailure(s, span.Context()); err != nil {
				return err
			}
		}
		// Loop: re-tick the post-recovery topology. RoundTo is idempotent,
		// so shards that already completed this round are no-ops.
	}
	r.mu.Lock()
	r.stats.Rounds++
	// Round boundary: the durable state now names a round every shard has
	// completed, so a successor resuming from it re-ticks at most one round
	// (idempotently) and never misses one.
	r.persistLocked()
	r.mu.Unlock()
	return nil
}

// handleShardFailure confirms a shard is dead with heartbeat probes, then
// recovers: respawn into the same slot while the restart budget lasts,
// otherwise remove the shard from the ring and reassign its tenants to the
// survivors. Every orphan is restored at its last acknowledged tick count
// and byte-verified against its on-disk audit log — zero lost decisions.
func (r *Router) handleShardFailure(s *shardSlot, parent ...obs.SpanContext) error {
	r.mu.Lock()
	addr := s.addr
	r.mu.Unlock()
	var span *obs.ActiveSpan
	if r.cfg.Tracer != nil {
		span = r.cfg.Tracer.StartChild(optCtx(parent), "router/recover").SetTrack(addr)
	}
	defer span.End()
	for probe := 0; probe < r.cfg.HeartbeatMisses; probe++ {
		if probe > 0 {
			time.Sleep(r.cfg.HeartbeatEvery)
		}
		if _, err := r.client.Health(addr, span.Context()); err == nil {
			// Alive after all — a slow round, a transient partition, or a
			// breaker that opened during a blip. Close the breaker so the
			// caller's re-tick actually reaches the shard: without the reset,
			// an open breaker fails every re-tick instantly with
			// ErrBreakerOpen until its cooldown elapses, burning through the
			// recovery-attempt bound in milliseconds and aborting the round
			// over a survivable transient.
			r.client.ResetBreaker(addr)
			r.logf("shard %d (%s): unresponsive but heartbeat ok; breaker reset", s.slot, addr)
			return nil
		}
	}
	r.logf("shard %d (%s): declared dead after %d missed heartbeats", s.slot, addr, r.cfg.HeartbeatMisses)
	span.Event("declared-dead", addr)
	r.mu.Lock()
	s.alive = false
	r.ring.Remove(addr)
	var orphans []string
	for id, t := range r.tenants {
		if t.shard == addr {
			orphans = append(orphans, id)
		}
	}
	r.persistLocked() // membership change: the slot is out of the ring
	r.mu.Unlock()
	sort.Strings(orphans)

	t0 := time.Now()
	respawned := false
	reassigned := 0
	defer func() {
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.mu.Lock()
		r.stats.RecoveryBlackoutMS += ms
		r.mu.Unlock()
		r.cfg.Obs.ShardDeath(respawned, reassigned, ms)
		span.SetAttr("orphans", float64(len(orphans))).SetAttr("blackout_ms", ms)
		r.logf("shard %d: recovery of %d tenants took %.1fms", s.slot, len(orphans), ms)
	}()

	r.mu.Lock()
	respawnable := r.cfg.Respawn != nil && s.respawns < r.cfg.RestartBudget
	if respawnable {
		s.respawns++
		r.stats.Respawns++
	}
	r.mu.Unlock()
	if respawnable {
		newAddr, err := r.cfg.Respawn(s.slot)
		if err != nil {
			r.logf("shard %d: respawn failed (%v); falling back to reassignment", s.slot, err)
		} else {
			r.client.ResetBreaker(addr)
			r.client.ResetBreaker(newAddr)
			r.client.nameShard(newAddr, s.slot)
			if err := r.client.Configure(newAddr, r.cfg.Spec, span.Context()); err != nil {
				return fmt.Errorf("rpc: configure respawned shard %d (%s): %w", s.slot, newAddr, err)
			}
			r.mu.Lock()
			s.addr = newAddr
			s.alive = true
			r.ring.Add(newAddr)
			for _, id := range orphans {
				if err := r.placeTenant(id, newAddr, span.Context()); err != nil {
					r.mu.Unlock()
					return err
				}
			}
			r.persistLocked() // membership change: respawned addr in the ring
			r.mu.Unlock()
			respawned = true
			span.Event("respawned", newAddr)
			r.logf("shard %d: respawned at %s, %d tenants restored", s.slot, newAddr, len(orphans))
			return nil
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.aliveSlotsLocked()) == 0 {
		return fmt.Errorf("rpc: shard %d dead and no survivors to reassign %d tenants to", s.slot, len(orphans))
	}
	for _, id := range orphans {
		t := r.tenants[id]
		if t.pinned {
			// A pinned tenant lost its pin target; fall back to the ring.
			t.pinned = false
		}
		target := r.ring.Lookup(id)
		if err := r.placeTenant(id, target, span.Context()); err != nil {
			return err
		}
		r.stats.Reassignments++
		reassigned++
		r.logf("tenant %s: reassigned %s → %s at tick %d", id, addr, target, t.ticks)
	}
	return nil
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
	var span *obs.ActiveSpan
	if r.cfg.Tracer != nil {
		span = r.cfg.Tracer.StartRoot("router/migrate").SetTrack(id)
	}
	outcome := "error"
	defer func() {
		span.End()
		if outcome != "" {
			// "ok" records its blackout inline at the success site; here we
			// only count the failure modes (blackout is meaningless there).
			r.cfg.Obs.Migration(outcome, 0)
		}
	}()
	r.mu.Lock()
	t := r.tenants[id]
	if t == nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("rpc: unknown tenant %q", id)
	}
	if t.shard == toAddr {
		r.mu.Unlock()
		outcome = "" // no-op move, nothing to count
		return 0, nil
	}
	fromAddr := t.shard
	targetLive := false
	for _, s := range r.slots {
		if s.addr == toAddr && s.alive {
			targetLive = true
		}
	}
	r.mu.Unlock()
	if !targetLive {
		return 0, fmt.Errorf("rpc: migration target %s is not a live shard", toAddr)
	}

	t0 := time.Now()
	// Persist the migration intent before the drain and mark it drained
	// after: whichever side of the crash window the router dies on, the
	// record tells its successor exactly how to finish the move (reconcile
	// rolls a drained migration forward onto the target, whose shared audit
	// log and checkpoint are intact).
	r.mu.Lock()
	r.migration = &migrationRecord{Tenant: id, From: fromAddr, To: toAddr}
	r.persistLocked()
	r.mu.Unlock()
	clearRecord := func() {
		r.mu.Lock()
		r.migration = nil
		r.persistLocked()
		r.mu.Unlock()
	}
	if fromAddr != "" {
		ev, err := r.client.Evict(fromAddr, id, true, span.Context())
		if err != nil {
			r.noteFenced(err)
			clearRecord()
			return 0, fmt.Errorf("rpc: migrate %s: drain: %w", id, err)
		}
		if !ev.Missing {
			r.mu.Lock()
			r.noteStatus(ev.Status)
			r.mu.Unlock()
		}
	}
	r.mu.Lock()
	r.migration.Drained = true
	r.persistLocked()
	r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	defer func() {
		r.migration = nil
		r.persistLocked()
	}()
	if err := r.placeTenant(id, toAddr, span.Context()); err != nil {
		// Drained but not restored — the tenant is running nowhere. Roll
		// back onto the source shard (its audit log and checkpoint are
		// intact there), else any other survivor, so the tenant is never
		// silently stalled for the rest of the run.
		rbErr := fmt.Errorf("no source shard")
		if fromAddr != "" {
			rbErr = r.placeTenant(id, fromAddr)
		}
		if rbErr != nil {
			for _, s := range r.aliveSlotsLocked() {
				if s.addr == fromAddr || s.addr == toAddr {
					continue
				}
				if rbErr = r.placeTenant(id, s.addr); rbErr == nil {
					break
				}
			}
		}
		if rbErr != nil {
			// Every rollback target failed too: mark the tenant unplaced so
			// the next round's placeUnplacedLocked pass re-places it.
			t.shard = ""
			return 0, fmt.Errorf("rpc: migrate %s: restore failed (%v); rollback failed (%v); tenant unplaced until next round", id, err, rbErr)
		}
		r.logf("tenant %s: migration to %s failed; rolled back to %s", id, toAddr, t.shard)
		return 0, fmt.Errorf("rpc: migrate %s: restore: %w (rolled back to %s)", id, err, t.shard)
	}
	t.pinned = true
	r.stats.Migrations++
	d := time.Since(t0)
	ms := float64(d.Nanoseconds()) / 1e6
	r.stats.MigrationBlackouts = append(r.stats.MigrationBlackouts, ms)
	outcome = ""
	r.cfg.Obs.Migration("ok", ms)
	span.SetAttr("blackout_ms", ms)
	r.logf("tenant %s: migrated %s → %s at tick %d in %.1fms", id, fromAddr, toAddr, t.ticks, ms)
	return d, nil
}

// isShedErr classifies a tick error as deliberate overload shedding — an
// admission-control 429, a deadline-expiry 504, or the client's own budget
// refusal — as opposed to a transport failure worth investigating.
func isShedErr(err error) bool {
	return IsOverloaded(err) || IsExpired(err) || errors.Is(err, ErrBudgetExhausted)
}

// Settle re-ticks the current round with no deadline so shards whose ticks
// were shed catch up. It does NOT advance the round — RoundTo is idempotent,
// so shards that already completed it are no-ops and the per-tenant audit
// streams stay byte-comparable to an unshed run. Call it before reading
// final per-tenant state after budgeted rounds.
func (r *Router) Settle() error {
	r.mu.Lock()
	round := r.round
	r.mu.Unlock()
	if round == 0 {
		return nil
	}
	r.client.SetDeadline(time.Time{})
	for _, addr := range r.aliveAddrs() {
		// A breaker left open by a budget-starved burst is stale state here:
		// settling runs with no deadline, so probe the shard directly instead
		// of failing fast on the burst's verdict.
		r.client.ResetBreaker(addr)
		resp, err := r.client.Tick(addr, round)
		if err != nil {
			r.noteFenced(err)
			return fmt.Errorf("rpc: settle round %d on %s: %w", round, addr, err)
		}
		r.mu.Lock()
		for _, st := range resp.Statuses {
			r.noteStatus(st)
		}
		r.mu.Unlock()
	}
	return nil
}

// CheckpointAll snapshots every live shard's tenants.
func (r *Router) CheckpointAll() (int, error) {
	total := 0
	for _, addr := range r.aliveAddrs() {
		resp, err := r.client.Checkpoint(addr)
		if err != nil {
			r.noteFenced(err)
			return total, err
		}
		total += resp.Saved
	}
	return total, nil
}

// scrapeShards fetches every live shard's Prometheus exposition from its
// control-plane /metrics endpoint. Unreachable shards are skipped — the
// caller compares the haul against the live count.
func (r *Router) scrapeShards() []obs.Exposition {
	cl := &http.Client{Timeout: 2 * time.Second}
	var out []obs.Exposition
	for _, addr := range r.aliveAddrs() {
		resp, err := cl.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		out = append(out, obs.Exposition{Shard: addr, Text: string(b)})
	}
	return out
}

// federate renders the fleet-wide metrics view: the router's own registry
// merged with the shard expositions, each sample relabeled with shard=addr.
func federate(tel *obs.Telemetry, shards []obs.Exposition) string {
	return obs.MergeExpositions(append(
		[]obs.Exposition{{Shard: "router", Text: tel.Reg.Expose()}}, shards...))
}

// collectSpans merges the router's own spans with every live shard's span
// buffer, pulled over /v1/traces. procs counts the processes that
// contributed; errs names the shards that did not.
func (r *Router) collectSpans() (spans []obs.TraceSpan, procs int, errs []error) {
	spans, procs = r.cfg.Tracer.Snapshot(), 1
	for _, addr := range r.aliveAddrs() {
		resp, err := r.client.Traces(addr)
		if err != nil {
			errs = append(errs, fmt.Errorf("traces from %s: %w", addr, err))
			continue
		}
		spans = append(spans, resp.Spans...)
		procs++
	}
	return spans, procs, errs
}
