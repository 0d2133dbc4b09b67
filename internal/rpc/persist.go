package rpc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"graf/internal/ckpt"
	"graf/internal/obs"
)

// Durable router state (DESIGN.md §3k). The router persists everything a
// replacement needs to take over — ring membership, tenant→shard placement,
// the round counter, any migration-in-progress record, and the per-slot
// restart-budget counters — as a gob blob in the shared checkpoint
// directory's "router" namespace, written atomically at round boundaries and
// at every placement mutation. The shards remain the system of record for
// tenant *state*; this blob is only the map and the clock, so a stale
// snapshot costs a reconcile pass, never correctness.

// persistedSlot mirrors shardSlot on disk.
type persistedSlot struct {
	Slot     int
	Addr     string
	Alive    bool
	Respawns int
}

// persistedTenant mirrors the placement-relevant half of tenantState.
type persistedTenant struct {
	ID       string
	Shard    string
	Pinned   bool
	Ticks    int
	AuditLen int
	AuditFNV uint64
	Brownout int
}

// migrationRecord marks a migration in flight: persisted before the drain
// and updated after it, so a router that dies between drain and restore
// leaves behind exactly what reconcile needs to roll the move forward (the
// tenant's audit log and checkpoint are intact on the source) or back.
type migrationRecord struct {
	Tenant string
	From   string
	To     string
	// Drained reports the evict on From completed — the tenant is running
	// nowhere and roll-forward is the cheapest completion.
	Drained bool
}

// routerState is the gob payload carried in ckpt.Snapshot.Opaque.
type routerState struct {
	Epoch     uint64
	Round     int
	Slots     []persistedSlot
	Tenants   []persistedTenant
	Migration *migrationRecord
}

func encodeRouterState(st *routerState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeRouterState(b []byte) (*routerState, error) {
	var st routerState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return nil, fmt.Errorf("rpc: undecodable router state: %w", err)
	}
	return &st, nil
}

// routerStoreName is the ckpt namespace the router persists under.
const routerStoreName = "router"

// openRouterStore opens the router's namespaced generation store.
func openRouterStore(dir string) (*ckpt.Store, error) {
	return ckpt.NewNamespacedStore(dir, routerStoreName)
}

// loadRouterState returns the newest valid persisted router state, or
// ckpt.ErrNoSnapshot when the store holds none.
func loadRouterState(dir string) (*routerState, error) {
	store, err := openRouterStore(dir)
	if err != nil {
		return nil, err
	}
	snap, err := store.LoadLatest()
	if err != nil {
		return nil, err
	}
	return decodeRouterState(snap.Opaque)
}

// snapshotLocked captures the router's durable state. Callers hold r.mu.
func (r *Router) snapshotLocked() *routerState {
	st := &routerState{Epoch: r.epoch, Round: r.round, Migration: r.migration}
	for _, s := range r.slots {
		st.Slots = append(st.Slots, persistedSlot{
			Slot: s.slot, Addr: s.addr, Alive: s.alive, Respawns: s.respawns,
		})
	}
	ids := make([]string, 0, len(r.tenants))
	for id := range r.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := r.tenants[id]
		st.Tenants = append(st.Tenants, persistedTenant{
			ID: t.id, Shard: t.shard, Pinned: t.pinned, Ticks: t.ticks,
			AuditLen: t.auditLen, AuditFNV: t.auditFNV, Brownout: t.brownout,
		})
	}
	return st
}

// persistLocked checkpoints the router's state. Callers hold r.mu. A fenced
// router never persists: it has lost leadership and must not overwrite its
// successor's newer snapshots in the shared store. Persistence failures are
// surfaced in stats and the log but do not stop the round loop — a router
// with a full disk degrades to PR-6 in-memory behavior rather than halting
// the fleet.
func (r *Router) persistLocked() {
	if r.store == nil || r.fenced.Load() {
		return
	}
	blob, err := encodeRouterState(r.snapshotLocked())
	if err == nil {
		_, _, err = r.store.Save(&ckpt.Snapshot{
			At:     float64(r.round),
			Ticks:  r.round,
			Opaque: blob,
		})
	}
	if err != nil {
		r.stats.PersistErrors++
		r.logf("router: persist round %d failed: %v", r.round, err)
	}
}

// ReconcileReport summarizes one anti-entropy pass: what a resumed or
// standby router found when it compared its checkpointed placement against
// every shard's reported residency.
type ReconcileReport struct {
	// Epoch is the resumed generation's fencing epoch (previous + 1).
	Epoch uint64
	// Round is the round counter the generation resumes from.
	Round int
	// ShardsScanned/ShardsDead count the /v1/tenants sweep.
	ShardsScanned int
	ShardsDead    int
	// Confirmed tenants were exactly where the checkpoint said; Adopted had
	// moved (shard-reported residency wins); Orphaned were resident nowhere
	// and re-placed through the ring; DupEvicted duplicate residencies were
	// evicted from the losing shard.
	Confirmed  int
	Adopted    int
	Orphaned   int
	DupEvicted int
	// MigrationTenant/MigrationAction describe how a mid-flight migration
	// record was resolved: "completed" (target already held the tenant),
	// "rolled-forward" (re-admitted on the target), "rolled-back" (restored
	// to the source), "re-placed" (both unreachable, ring placement), or ""
	// (no migration was in flight).
	MigrationTenant string
	MigrationAction string
}

// String renders the audit-visible one-line summary.
func (rep *ReconcileReport) String() string {
	s := fmt.Sprintf("reconcile: epoch=%d round=%d shards=%d dead=%d confirmed=%d adopted=%d orphaned=%d dup_evicted=%d",
		rep.Epoch, rep.Round, rep.ShardsScanned, rep.ShardsDead,
		rep.Confirmed, rep.Adopted, rep.Orphaned, rep.DupEvicted)
	if rep.MigrationAction != "" {
		s += fmt.Sprintf(" migration=%s:%s", rep.MigrationTenant, rep.MigrationAction)
	}
	return s
}

// ResumeRouter rebuilds a router from the durable state in
// cfg.StateDir — the warm-restore path behind `grafrouter -resume` and the
// standby's takeover. It bumps the fencing epoch past the dead generation's
// (and persists the bump before touching any shard, so a crash mid-resume
// bumps again rather than reusing an epoch), then runs the anti-entropy
// reconcile: scan every checkpointed shard's /v1/tenants, let shard-reported
// residency win, roll a mid-flight migration forward or back, and re-place
// orphans through the ring. The returned router continues the round sequence
// where the checkpoint left off.
func ResumeRouter(cfg RouterConfig) (*Router, *ReconcileReport, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, nil, fmt.Errorf("rpc: ResumeRouter needs cfg.StateDir")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, nil, err
	}
	st, err := loadRouterState(cfg.StateDir)
	if err != nil {
		if errors.Is(err, ckpt.ErrNoSnapshot) {
			return nil, nil, fmt.Errorf("rpc: nothing to resume: %w", err)
		}
		return nil, nil, fmt.Errorf("rpc: load router state: %w", err)
	}
	store, err := openRouterStore(cfg.StateDir)
	if err != nil {
		return nil, nil, err
	}
	r := &Router{
		cfg:       cfg,
		client:    NewClient(cfg.Client, cfg.Fault),
		ring:      NewRing(cfg.VNodes),
		tenants:   map[string]*tenantState{},
		store:     store,
		epoch:     st.Epoch + 1,
		round:     st.Round,
		migration: st.Migration,
	}
	r.client.Obs = cfg.RPCObs
	r.client.Tracer = cfg.Tracer
	r.client.SetEpoch(r.epoch)
	for _, ps := range st.Slots {
		s := &shardSlot{slot: ps.Slot, addr: ps.Addr, alive: ps.Alive, respawns: ps.Respawns}
		r.slots = append(r.slots, s)
		r.client.nameShard(s.addr, s.slot)
		if s.alive {
			r.ring.Add(s.addr)
		}
	}
	for _, pt := range st.Tenants {
		r.tenants[pt.ID] = &tenantState{
			id: pt.ID, shard: pt.Shard, pinned: pt.Pinned, ticks: pt.Ticks,
			auditLen: pt.AuditLen, auditFNV: pt.AuditFNV, brownout: pt.Brownout,
		}
	}
	// Durably claim the new epoch before the first shard call: the first
	// mutating RPC raises every shard's fence to it, and re-using an epoch
	// after a crash-during-reconcile would let the previous zombie back in.
	r.mu.Lock()
	r.persistLocked()
	r.mu.Unlock()

	rep, err := r.reconcile()
	if err != nil {
		return nil, rep, err
	}
	return r, rep, nil
}

// primaryGrace is how long a standby waits for a primary that has never
// answered before concluding it was dead from the start.
const primaryGrace = 60 * time.Second

// WaitForPrimaryFailure blocks until the primary's /v1/router/healthz has
// failed `misses` consecutive probes after having answered at least once,
// and returns the instant of the last successful probe — where the takeover
// blackout clock starts. If the primary never answers within the grace
// window (it was already dead when the standby started), it returns the
// current time and answered=false: leadership is claimed immediately.
func WaitForPrimaryFailure(primary string, every time.Duration, misses int) (lastOK time.Time, answered bool) {
	timeout := 2 * every
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	cl := &http.Client{Timeout: timeout}
	url := "http://" + primary + "/v1/router/healthz"
	grace := time.Now().Add(primaryGrace)
	consecutive := 0
	for {
		resp, err := cl.Get(url)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		switch {
		case ok:
			answered, consecutive = true, 0
			lastOK = time.Now()
		case answered:
			consecutive++
			if consecutive >= misses {
				return lastOK, true
			}
		case time.Now().After(grace):
			return time.Now(), false
		}
		time.Sleep(every)
	}
}

// reconcile is the anti-entropy pass: declared (checkpointed) placement vs.
// observed (shard-reported) residency, observed wins.
func (r *Router) reconcile() (*ReconcileReport, error) {
	var span *obs.ActiveSpan
	if r.cfg.Tracer != nil {
		span = r.cfg.Tracer.StartRoot("router/reconcile")
	}
	defer span.End()
	rep := &ReconcileReport{Epoch: r.epoch, Round: r.round}

	// Sweep every checkpointed slot — including ones marked dead, which may
	// have been respawned behind the router's back. A slot that answers is
	// (re-)adopted into the ring; one that does not is marked dead so its
	// tenants flow through the orphan path below.
	type residence struct {
		addr string
		st   TenantStatus
	}
	resident := map[string][]residence{}
	r.mu.Lock()
	slots := append([]*shardSlot(nil), r.slots...)
	r.mu.Unlock()
	for _, s := range slots {
		resp, err := r.client.Tenants(s.addr, span.Context())
		r.mu.Lock()
		if err != nil {
			if s.alive {
				s.alive = false
				r.ring.Remove(s.addr)
			}
			rep.ShardsDead++
			r.mu.Unlock()
			r.logf("reconcile: shard %d (%s) unreachable: %v", s.slot, s.addr, err)
			continue
		}
		if !s.alive {
			s.alive = true
			r.ring.Add(s.addr)
			r.logf("reconcile: shard %d (%s) re-adopted into the ring", s.slot, s.addr)
		}
		rep.ShardsScanned++
		r.mu.Unlock()
		for _, st := range resp.Statuses {
			resident[st.ID] = append(resident[st.ID], residence{addr: s.addr, st: st})
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.aliveSlotsLocked()) == 0 {
		return rep, fmt.Errorf("rpc: reconcile: no live shards")
	}

	// Duplicate residency (a lost admit response followed by a rollback can
	// leave a tenant on two shards): keep the furthest-ahead copy — ties
	// broken toward the in-flight migration's target, then lexicographic for
	// determinism — and evict the rest.
	ids := make([]string, 0, len(resident))
	for id := range resident {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		homes := resident[id]
		if len(homes) <= 1 {
			continue
		}
		sort.Slice(homes, func(i, j int) bool {
			if homes[i].st.Ticks != homes[j].st.Ticks {
				return homes[i].st.Ticks > homes[j].st.Ticks
			}
			if m := r.migration; m != nil && m.Tenant == id {
				if (homes[i].addr == m.To) != (homes[j].addr == m.To) {
					return homes[i].addr == m.To
				}
			}
			return homes[i].addr < homes[j].addr
		})
		for _, h := range homes[1:] {
			if _, err := r.client.Evict(h.addr, id, false, span.Context()); err != nil {
				return rep, fmt.Errorf("rpc: reconcile: evict duplicate %s from %s: %w", id, h.addr, err)
			}
			rep.DupEvicted++
			r.logf("reconcile: tenant %s duplicate on %s evicted (kept %s at tick %d)",
				id, h.addr, homes[0].addr, homes[0].st.Ticks)
		}
		resident[id] = homes[:1]
	}

	// Observed residency wins over the checkpointed map.
	for _, id := range ids {
		h := resident[id][0]
		t := r.tenants[id]
		if t == nil {
			// A tenant the checkpoint predates: adopt it wholesale.
			t = &tenantState{id: id}
			r.tenants[id] = t
		}
		if t.shard == h.addr {
			rep.Confirmed++
		} else {
			rep.Adopted++
			r.logf("reconcile: tenant %s adopted at %s (checkpoint said %q)", id, h.addr, t.shard)
			t.shard = h.addr
		}
		r.noteStatus(h.st)
	}

	// Tenants the checkpoint places on a shard that no longer holds them
	// are unplaced BEFORE migration handling, so a mid-flight migration's
	// tenant (drained off its source, restored nowhere) enters that branch
	// already unplaced and is not re-orphaned after the roll-forward.
	for _, t := range r.tenants {
		if t.shard != "" && len(resident[t.id]) == 0 {
			r.logf("reconcile: tenant %s missing from %s", t.id, t.shard)
			t.shard = ""
			t.pinned = false
		}
	}

	// A mid-flight migration whose tenant is resident nowhere is rolled
	// forward onto its target (audit log and checkpoint are intact in the
	// shared stores); if the target is gone, rolled back to the source; if
	// both are gone, the ring re-places it with the other orphans.
	if m := r.migration; m != nil {
		rep.MigrationTenant = m.Tenant
		if homes := resident[m.Tenant]; len(homes) > 0 {
			if homes[0].addr == m.To {
				rep.MigrationAction = "completed"
				if t := r.tenants[m.Tenant]; t != nil {
					t.pinned = true
				}
			} else {
				rep.MigrationAction = "rolled-back"
			}
		} else if t := r.tenants[m.Tenant]; t != nil {
			t.shard = ""
			if r.isAliveLocked(m.To) && r.placeTenant(m.Tenant, m.To, span.Context()) == nil {
				t.pinned = true
				rep.MigrationAction = "rolled-forward"
			} else if m.From != "" && r.isAliveLocked(m.From) && r.placeTenant(m.Tenant, m.From, span.Context()) == nil {
				t.pinned = false
				rep.MigrationAction = "rolled-back"
			} else {
				t.pinned = false
				rep.MigrationAction = "re-placed"
			}
			r.logf("reconcile: migration %s (%s → %s, drained=%v) %s",
				m.Tenant, m.From, m.To, m.Drained, rep.MigrationAction)
		}
		r.migration = nil
	}

	// Everything still unplaced goes through the standard ring placement.
	for _, t := range r.tenants {
		if t.shard == "" {
			rep.Orphaned++
		}
	}
	if err := r.placeUnplacedLocked(); err != nil {
		return rep, fmt.Errorf("rpc: reconcile: %w", err)
	}

	r.persistLocked()
	r.cfg.Obs.Reconcile(rep.Epoch, rep.Confirmed, rep.Adopted, rep.Orphaned, rep.DupEvicted)
	r.logf("%s", rep.String())
	return rep, nil
}

// isAliveLocked reports whether addr is a live slot. Callers hold r.mu.
func (r *Router) isAliveLocked(addr string) bool {
	for _, s := range r.slots {
		if s.addr == addr && s.alive {
			return true
		}
	}
	return false
}
