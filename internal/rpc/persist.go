package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"graf/internal/ckpt"
)

// Durable router state (DESIGN.md §3k). placement is the router's whole
// state — ring membership (slots and their alive flags), tenant→shard
// placement, the round counter, the in-flight migration, per-slot
// restart-budget counters and the fencing epoch — and the gob payload commit
// persists in the shared checkpoint directory's "router" namespace. Its
// methods are the router's placement decisions: pure, no lock, clock or I/O.
// The shards remain the system of record for tenant *state*; this is only the
// map and the clock, so a stale snapshot costs a reconcile pass, never
// correctness. The field names are the on-disk format.
type placement struct {
	Epoch     uint64
	Round     int
	Slots     []*ShardInfo   // indexed by slot
	Tenants   []*tenantState // sorted by ID
	Migration *migrationRecord
}

// tenantState is the router's authoritative record of one tenant: where it
// lives and the last acknowledged tick count and audit fingerprint — the
// baseline every recovery and migration is verified against. The unexported
// fields are live-only reports, which gob does not persist.
type tenantState struct {
	ID       string
	Shard    string // current owner address ("" = unplaced)
	Pinned   bool   // placed by Migrate, exempt from ring lookup
	Ticks    int
	AuditLen int
	AuditFNV uint64
	Brownout int // last reported degradation-ladder rung (0=full)
	degraded bool
	p99      float64
	violS    float64
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

func byID(t *tenantState, id string) int { return strings.Compare(t.ID, id) }

// tenant returns id's record, nil when there is none.
func (p *placement) tenant(id string) *tenantState {
	if i, ok := slices.BinarySearchFunc(p.Tenants, id, byID); ok {
		return p.Tenants[i]
	}
	return nil
}

// note records shard-reported statuses; a tenant the router does not place
// is ignored.
func (p *placement) note(sts ...TenantStatus) {
	for _, st := range sts {
		if t := p.tenant(st.ID); t != nil {
			t.Ticks, t.AuditLen, t.AuditFNV, t.Brownout = st.Ticks, st.AuditLen, st.AuditFNV, st.Brownout
			t.degraded, t.p99, t.violS = st.Degraded, st.P99, st.ViolS
		}
	}
}

// live returns the live slots' addresses, in slot order.
func (p *placement) live() []string {
	var out []string
	for _, s := range p.Slots {
		if s.Alive {
			out = append(out, s.Addr)
		}
	}
	return out
}

// orphans lists the tenants placed on addr, by ID; "" lists the unplaced.
func (p *placement) orphans(addr string) []string {
	var ids []string
	for _, t := range p.Tenants {
		if t.Shard == addr {
			ids = append(ids, t.ID)
		}
	}
	return ids
}

// candidates keeps the live addresses of want, each once, in order: the list
// a placement tries. home, migrateTo and rollForward are the three orders.
func (p *placement) candidates(want ...string) []string {
	var out []string
	live := p.live()
	for _, addr := range want {
		if slices.Contains(live, addr) && !slices.Contains(out, addr) {
			out = append(out, addr)
		}
	}
	return out
}

// ring is the consistent-hash ring over the live slots. Its members are slot
// numbers, not addresses: a tenant's ring home then depends only on which
// slots are alive — the same in every run of a schedule, whatever ports the
// shards bound, and the same after its slot respawns at another address.
func (p *placement) ring() *hashRing {
	var slots []string
	for _, s := range p.Slots {
		if s.Alive {
			slots = append(slots, strconv.Itoa(s.Slot))
		}
	}
	return newRing(ringVNodes, slots...)
}

// ringAddr is the address of id's slot on ring ("" on an empty ring).
func (p *placement) ringAddr(id string, ring *hashRing) string {
	slot, err := strconv.Atoi(ring.Lookup(id))
	if err != nil {
		return ""
	}
	return p.Slots[slot].Addr
}

// home is a tenant's ring placement.
func (p *placement) home(id string, ring *hashRing) []string {
	return p.candidates(p.ringAddr(id, ring))
}

// migrateTo is a migration's: the target, then rollback onto the source (its
// audit log and checkpoint are intact there), then every other survivor.
func (p *placement) migrateTo(id, to string) []string {
	return p.candidates(append([]string{to, p.tenant(id).Shard}, p.live()...)...)
}

// rollForward is a drained migration's completion after a router death:
// forward onto the target, else back to the source, else the ring.
func (p *placement) rollForward(m *migrationRecord, ring *hashRing) []string {
	return p.candidates(m.To, m.From, p.ringAddr(m.Tenant, ring))
}

// residence is one tenant's status as one shard reports it.
type residence struct {
	addr string
	st   TenantStatus
}

// resolve is reconcile's decision. It folds one sweep of the shards into p —
// up[i] is whether slot i answered, seen every residence reported — in the
// order DESIGN.md §3k pins: a slot is live iff it answered (a dead-marked
// slot that answers is re-adopted); a tenant on several shards keeps the copy
// with the most ticks (ties: the migration target, then the address) and the
// rest are returned to evict; observed residency wins, adopting tenants the
// checkpoint predates; a tenant resident nowhere is unplaced BEFORE migration
// handling, so the migrating tenant (drained, restored nowhere) is not
// re-orphaned after its roll-forward; the migration record resolves to
// "completed" on the target, "rolled-back" elsewhere, or — resident nowhere —
// roll, for the executor to place by rollForward, and is cleared.
func (p *placement) resolve(up []bool, seen []residence) (res ReconcileReport, evict []residence, roll *migrationRecord) {
	res.Epoch, res.Round = p.Epoch, p.Round
	for i, s := range p.Slots {
		if s.Alive = up[i]; s.Alive {
			res.ShardsScanned++
		} else {
			res.ShardsDead++
		}
	}
	// By tenant, each tenant's winning copy first.
	m := p.Migration
	sort.Slice(seen, func(i, j int) bool {
		a, b := seen[i], seen[j]
		switch {
		case a.st.ID != b.st.ID:
			return a.st.ID < b.st.ID
		case a.st.Ticks != b.st.Ticks:
			return a.st.Ticks > b.st.Ticks
		case m != nil && m.Tenant == a.st.ID && (a.addr == m.To) != (b.addr == m.To):
			return a.addr == m.To
		}
		return a.addr < b.addr
	})
	resident := map[string]string{} // tenant → the shard that keeps it
	for i, h := range seen {
		if i > 0 && seen[i-1].st.ID == h.st.ID {
			evict = append(evict, h)
			continue
		}
		resident[h.st.ID] = h.addr
		k, ok := slices.BinarySearchFunc(p.Tenants, h.st.ID, byID)
		if !ok { // a tenant the checkpoint predates: adopt it wholesale
			p.Tenants = slices.Insert(p.Tenants, k, &tenantState{ID: h.st.ID})
		}
		t := p.Tenants[k]
		if t.Shard == h.addr {
			res.Confirmed++
		} else {
			res.Adopted++
			t.Shard = h.addr
		}
		p.note(h.st)
	}
	res.DupEvicted = len(evict)
	for _, t := range p.Tenants {
		if t.Shard != "" && resident[t.ID] == "" {
			t.Shard, t.Pinned = "", false
		}
		if t.Shard == "" && (m == nil || t.ID != m.Tenant) {
			res.Orphaned++
		}
	}
	if m != nil {
		res.MigrationTenant = m.Tenant
		switch at := resident[m.Tenant]; {
		case at != "" && at == m.To:
			res.MigrationAction = "completed"
			p.tenant(m.Tenant).Pinned = true
		case at != "":
			res.MigrationAction = "rolled-back"
		case p.tenant(m.Tenant) != nil:
			roll = m
		}
		p.Migration = nil
	}
	return res, evict, roll
}

// placementGob encodes the placement commit persists; decodeRouterState
// reads it back.
var placementGob ckpt.GobEncoder[placement]

func decodeRouterState(b []byte) (*placement, error) {
	var p placement
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return nil, fmt.Errorf("rpc: undecodable router state: %w", err)
	}
	slices.SortFunc(p.Tenants, func(a, b *tenantState) int { return byID(a, b.ID) })
	return &p, nil
}

// loadRouterState returns the newest valid persisted router state, or
// ckpt.ErrNoSnapshot when the store holds none.
func loadRouterState(dir string) (*placement, error) {
	store, err := ckpt.NewNamespacedStore(dir, "router")
	if err != nil {
		return nil, err
	}
	snap, err := store.LoadLatest()
	if err != nil {
		return nil, err
	}
	return decodeRouterState(snap.Opaque)
}

// update runs f on the placement under r.mu and persists nothing: for the
// round loop's writes that no successor needs (live reports, stats) or that
// the next commit makes durable.
func (r *Router) update(f func(p *placement)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.p)
}

// commit is the one way the placement changes durably: f mutates it under
// r.mu, and the result is checkpointed. A fenced router never persists: it
// has lost leadership and must not overwrite its successor's newer snapshots
// in the shared store. Persistence failures are surfaced in stats and the log
// but do not stop the round loop — a router with a full disk degrades to
// in-memory behavior rather than halting the fleet.
func (r *Router) commit(f func(p *placement)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.p)
	if r.store == nil || r.fenced.Load() {
		return
	}
	blob, err := placementGob.Append(r.saved.Opaque[:0], &r.p)
	if err == nil {
		r.saved = ckpt.Snapshot{At: float64(r.p.Round), Ticks: r.p.Round, Opaque: blob}
		_, _, err = r.store.Save(&r.saved)
	}
	if err != nil {
		r.stats.PersistErrors++
		r.logf("router: persist round %d failed: %v", r.p.Round, err)
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

// resumeRouter rebuilds a router from the durable state in
// cfg.StateDir — the warm-restore path behind `grafrouter -resume` and the
// standby's takeover. It bumps the fencing epoch past the dead generation's
// (and persists the bump before touching any shard, so a crash mid-resume
// bumps again rather than reusing an epoch), then runs the anti-entropy
// reconcile: scan every checkpointed shard's /v1/tenants, let shard-reported
// residency win, roll a mid-flight migration forward or back, and re-place
// orphans through the ring. The returned router continues the round sequence
// where the checkpoint left off.
func resumeRouter(cfg RouterConfig) (*Router, *ReconcileReport, error) {
	if cfg.StateDir == "" {
		return nil, nil, fmt.Errorf("rpc: ResumeRouter needs cfg.StateDir")
	}
	r, err := newRouter(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	// Durably claim the new epoch before the first shard call: the first
	// mutating RPC raises every shard's fence to it, and re-using an epoch
	// after a crash-during-reconcile would let the previous zombie back in.
	r.commit(func(*placement) {})
	rep, err := r.reconcile()
	if err != nil {
		return nil, rep, err
	}
	return r, rep, nil
}

// reconcile is the anti-entropy pass: declared (checkpointed) placement vs.
// observed (shard-reported) residency, observed wins (resolve).
func (r *Router) reconcile() (*ReconcileReport, error) {
	span := r.cfg.Tracer.StartRoot("router/reconcile")
	defer span.End()
	var up []bool
	var seen []residence
	for _, s := range r.p.Slots {
		resp, err := r.client.Tenants(s.Addr, span.Context())
		if up = append(up, err == nil); err != nil {
			r.logf("reconcile: shard %d (%s) unreachable: %v", s.Slot, s.Addr, err)
			continue
		}
		for _, st := range resp.Statuses {
			seen = append(seen, residence{addr: s.Addr, st: st})
		}
	}
	r.mu.Lock()
	rep, evict, m := r.p.resolve(up, seen)
	r.mu.Unlock()
	if len(r.p.live()) == 0 {
		return &rep, fmt.Errorf("rpc: reconcile: no live shards")
	}
	for _, h := range evict {
		if _, err := r.client.Evict(h.addr, h.st.ID, false, span.Context()); err != nil {
			return &rep, fmt.Errorf("rpc: reconcile: evict duplicate %s from %s: %w", h.st.ID, h.addr, err)
		}
		r.logf("reconcile: tenant %s duplicate on %s evicted", h.st.ID, h.addr)
	}
	if m != nil {
		won, _ := r.place(m.Tenant, span.Context(), r.p.rollForward(m, r.p.ring())...)
		switch {
		case won != "" && won == m.To:
			rep.MigrationAction = "rolled-forward"
		case won != "" && won == m.From:
			rep.MigrationAction = "rolled-back"
		default:
			rep.MigrationAction = "re-placed"
			rep.Orphaned++
		}
		r.update(func(p *placement) { p.tenant(m.Tenant).Pinned = rep.MigrationAction == "rolled-forward" })
		r.logf("reconcile: migration %s (%s → %s, drained=%v) %s", m.Tenant, m.From, m.To, m.Drained, rep.MigrationAction)
	}
	if err := r.placeUnplaced(span.Context()); err != nil {
		return &rep, fmt.Errorf("rpc: reconcile: %w", err)
	}
	r.commit(func(*placement) {})
	r.cfg.Obs.Reconcile(rep.Epoch, rep.Confirmed, rep.Adopted, rep.Orphaned, rep.DupEvicted)
	r.logf("%s", rep.String())
	return &rep, nil
}
