package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"graf/internal/ckpt"
)

// placementModel drives the pure half of the router — placement's methods —
// the way the router's executor does, with the shard RPCs replaced by coin
// flips: an admit fails on a candidate with probability failP.
type placementModel struct {
	t     *testing.T
	rng   *rand.Rand
	p     *placement
	gen   int // respawn generation, for fresh addresses
	failP float64
	epoch uint64
}

func newPlacementModel(t *testing.T, seed int64) *placementModel {
	rng := rand.New(rand.NewSource(seed))
	p := &placement{Epoch: 1}
	for i := 0; i < 2+rng.Intn(3); i++ {
		p.Slots = append(p.Slots, &ShardInfo{Slot: i, Addr: fmt.Sprintf("10.0.0.%d:1", i), Alive: true})
	}
	for i := 0; i < 3+rng.Intn(6); i++ {
		p.Tenants = append(p.Tenants, &tenantState{ID: fmt.Sprintf("tenant-%02d", i), Ticks: 1})
	}
	m := &placementModel{t: t, rng: rng, p: p, failP: 0.25, epoch: 1}
	m.placeUnplaced(0)
	return m
}

// TestRingHomeIgnoresAddresses: a tenant's ring home is a slot, so two
// routers over the same live slots place every tenant on the same slot
// whatever ports their shards bound — which keeps a routed run's schedule
// (and a "kill the fullest shard" fault) the same from run to run.
func TestRingHomeIgnoresAddresses(t *testing.T) {
	slotOf := map[string]int{}
	for run, port := range []int{40855, 37317} {
		p := &placement{}
		for i := 0; i < 3; i++ {
			p.Slots = append(p.Slots, &ShardInfo{Slot: i, Addr: fmt.Sprintf("127.0.0.1:%d", port+i), Alive: true})
		}
		ring := p.ring()
		for i := 0; i < 16; i++ {
			id := fmt.Sprintf("tenant-%02d", i)
			home := p.home(id, ring)
			if len(home) != 1 {
				t.Fatalf("home of %s = %v", id, home)
			}
			slot := slices.IndexFunc(p.Slots, func(s *ShardInfo) bool { return s.Addr == home[0] })
			if run == 0 {
				slotOf[id] = slot
			} else if slot != slotOf[id] {
				t.Errorf("%s: slot %d under one set of ports, %d under another", id, slotOf[id], slot)
			}
		}
	}
}

// candidatesOK asserts a candidate list names only live slots, each once.
func (m *placementModel) candidatesOK(what string, cands []string) {
	m.t.Helper()
	live := m.p.live()
	for i, c := range cands {
		if !slices.Contains(live, c) {
			m.t.Fatalf("%s: candidate %q is not live (live %v)", what, c, live)
		}
		if slices.Contains(cands[:i], c) {
			m.t.Fatalf("%s: candidate %q appears twice in %v", what, c, cands)
		}
	}
}

// place is the executor's place over coin-flip admits: the first candidate
// whose admit succeeds wins; none leaves the tenant unplaced.
func (m *placementModel) place(id string, failP float64, cands ...string) string {
	t := m.p.tenant(id)
	for _, c := range cands {
		if m.rng.Float64() >= failP {
			t.Shard = c
			return c
		}
	}
	t.Shard = ""
	return ""
}

func (m *placementModel) ring() *Ring { return m.p.ring() }

// ringHome is the address of the live slot ring names for id ("" when no
// slot is alive).
func (m *placementModel) ringHome(id string, ring *Ring) string {
	slot := ring.Lookup(id)
	for _, s := range m.p.Slots {
		if s.Alive && fmt.Sprint(s.Slot) == slot {
			return s.Addr
		}
	}
	return ""
}

func (m *placementModel) placeUnplaced(failP float64) {
	ring := m.ring()
	for _, id := range m.p.orphans("") {
		home := m.p.home(id, ring)
		m.candidatesOK("home "+id, home)
		if want := m.ringHome(id, ring); want != "" && !slices.Equal(home, []string{want}) {
			m.t.Fatalf("home of %s = %v, want the ring's %q", id, home, want)
		}
		m.place(id, failP, home...)
	}
}

// kill marks a live slot dead and recovers its orphans: respawned into the
// same slot at a fresh address, or reassigned to their ring homes.
func (m *placementModel) kill() {
	live := m.p.live()
	if len(live) == 0 {
		return
	}
	dead := live[m.rng.Intn(len(live))]
	slot := slices.IndexFunc(m.p.Slots, func(s *ShardInfo) bool { return s.Addr == dead })
	m.p.Slots[slot].Alive = false
	orphans := m.p.orphans(dead)
	if m.rng.Intn(2) == 0 {
		m.gen++
		addr := fmt.Sprintf("10.0.%d.%d:1", m.gen, slot)
		m.p.Slots[slot].Addr, m.p.Slots[slot].Alive = addr, true
		for _, id := range orphans {
			m.place(id, m.failP, addr)
		}
		return
	}
	ring := m.ring()
	for _, id := range orphans {
		home := m.p.home(id, ring)
		m.candidatesOK("reassign "+id, home)
		m.place(id, m.failP, home...)
	}
}

// respawn revives a dead slot at a fresh address.
func (m *placementModel) respawn() {
	for _, s := range m.p.Slots {
		if !s.Alive {
			m.gen++
			s.Addr, s.Alive = fmt.Sprintf("10.0.%d.%d:1", m.gen, s.Slot), true
			return
		}
	}
}

// migrate runs a migration through intent → drained → done, or stops at the
// drained record (the crash window) for a later resume to finish.
func (m *placementModel) migrate() (crashed bool) {
	live := m.p.live()
	if len(live) < 2 {
		return false
	}
	t := m.p.Tenants[m.rng.Intn(len(m.p.Tenants))]
	to := live[m.rng.Intn(len(live))]
	if t.Shard == to {
		return false
	}
	cands := m.p.migrateTo(t.ID, to)
	m.candidatesOK("migrate "+t.ID, cands)
	want := []string{to}
	if slices.Contains(live, t.Shard) {
		want = append(want, t.Shard)
	}
	for _, a := range live {
		if !slices.Contains(want, a) {
			want = append(want, a)
		}
	}
	if !slices.Equal(cands, want) {
		m.t.Fatalf("migrate %s %s → %s: candidates %v, want target, source, then survivors %v", t.ID, t.Shard, to, cands, want)
	}
	m.p.Migration = &migrationRecord{Tenant: t.ID, From: t.Shard, To: to}
	m.p.Migration.Drained = true
	if m.rng.Intn(4) == 0 {
		return true
	}
	if won := m.place(t.ID, m.failP, cands...); won == to {
		t.Pinned = true
	}
	m.p.Migration = nil
	return false
}

// resume folds a random observation of the shards into the placement:
// residencies as placed, with copies dropped, duplicated at random tick
// counts (sometimes on the migration target), and a dead-marked slot that
// answers. Then it checks resolve's contract and runs its executor steps.
func (m *placementModel) resume() {
	m.p.Epoch++
	if m.p.Epoch != m.epoch+1 {
		m.t.Fatalf("resume took epoch %d → %d, want +1", m.epoch, m.p.Epoch)
	}
	m.epoch = m.p.Epoch
	up := make([]bool, len(m.p.Slots))
	for i, s := range m.p.Slots {
		up[i] = m.rng.Float64() < 0.85 || (!s.Alive && m.rng.Intn(2) == 0)
	}
	var seen []residence
	slotOf := func(addr string) int {
		return slices.IndexFunc(m.p.Slots, func(s *ShardInfo) bool { return s.Addr == addr })
	}
	for _, t := range m.p.Tenants {
		// A shard reports a tenant at most once.
		at := map[string]int{}
		mig := m.p.Migration
		drained := mig != nil && mig.Tenant == t.ID // evicted off its source: resident nowhere
		if i := slotOf(t.Shard); i >= 0 && up[i] && !drained && m.rng.Float64() < 0.9 {
			at[t.Shard] = t.Ticks
		}
		if drained && m.rng.Intn(3) == 0 {
			if i := slotOf(mig.To); i >= 0 && up[i] {
				at[mig.To] = t.Ticks
			}
		}
		for i, s := range m.p.Slots {
			if _, ok := at[s.Addr]; !ok && up[i] && m.rng.Intn(10) == 0 {
				at[s.Addr] = t.Ticks - 1 + m.rng.Intn(3)
			}
		}
		for _, s := range m.p.Slots {
			if ticks, ok := at[s.Addr]; ok {
				seen = append(seen, residence{addr: s.Addr, st: TenantStatus{ID: t.ID, Ticks: ticks}})
			}
		}
	}
	mig := m.p.Migration
	rep, evict, roll := m.p.resolve(up, slices.Clone(seen))
	if m.p.Migration != nil {
		m.t.Fatalf("resolve left the migration record %+v", m.p.Migration)
	}
	for i, s := range m.p.Slots {
		if s.Alive != up[i] {
			m.t.Fatalf("slot %d alive=%v after a sweep that answered %v", i, s.Alive, up[i])
		}
	}
	if rep.Epoch != m.epoch || rep.DupEvicted != len(evict) {
		m.t.Fatalf("report %+v: epoch %d, %d evictions", rep, m.epoch, len(evict))
	}
	// The winner of a duplicate: most ticks, then the migration target, then
	// the lowest address — and every copy but the winner is evicted.
	for _, h := range seen {
		t := m.p.tenant(h.st.ID)
		won := residence{addr: t.Shard, st: TenantStatus{ID: t.ID, Ticks: t.Ticks}}
		if h.addr == won.addr {
			continue
		}
		target := func(r residence) bool { return mig != nil && mig.Tenant == r.st.ID && r.addr == mig.To }
		better := won.st.Ticks > h.st.Ticks || won.st.Ticks == h.st.Ticks &&
			(target(won) && !target(h) || target(won) == target(h) && won.addr < h.addr)
		if !better {
			m.t.Fatalf("tenant %s kept %+v over %+v (migration %+v)", t.ID, won, h, mig)
		}
		if !slices.ContainsFunc(evict, func(e residence) bool { return e == h }) {
			m.t.Fatalf("losing copy %+v not evicted", h)
		}
	}
	unplaced := len(m.p.orphans(""))
	if roll != nil {
		if m.p.tenant(roll.Tenant).Shard != "" {
			m.t.Fatalf("roll-forward of %s, which is placed on %s", roll.Tenant, m.p.tenant(roll.Tenant).Shard)
		}
		unplaced--
	}
	if rep.Orphaned != unplaced {
		m.t.Fatalf("orphaned %d, but %d tenants besides the roll-forward are unplaced", rep.Orphaned, unplaced)
	}
	if roll != nil {
		cands := m.p.rollForward(roll, m.ring())
		m.candidatesOK("roll-forward "+roll.Tenant, cands)
		want := m.p.candidates(roll.To, roll.From, m.ringHome(roll.Tenant, m.ring()))
		if !slices.Equal(cands, want) || (len(cands) > 0 && slices.Contains(m.p.live(), roll.To) && cands[0] != roll.To) {
			m.t.Fatalf("roll-forward candidates %v, want target, source, ring: %v", cands, want)
		}
		m.place(roll.Tenant, 0, cands...)
	}
	m.placeUnplaced(0)
	// A resume with any live shard leaves no tenant unplaced: nothing stays
	// drained and running nowhere.
	if len(m.p.live()) > 0 {
		if ids := m.p.orphans(""); len(ids) > 0 {
			m.t.Fatalf("tenants %v unplaced after a resume with live shards %v", ids, m.p.live())
		}
	}
}

// check is the invariant every step keeps: each tenant is placed on at most
// one live slot or unplaced, tenants stay sorted and unique, and the epoch
// never moves backward.
func (m *placementModel) check(step string) {
	m.t.Helper()
	live := m.p.live()
	for i, t := range m.p.Tenants {
		if t.Shard != "" && !slices.Contains(live, t.Shard) {
			m.t.Fatalf("%s: tenant %s placed on %s, not a live slot (%v)", step, t.ID, t.Shard, live)
		}
		if i > 0 && m.p.Tenants[i-1].ID >= t.ID {
			m.t.Fatalf("%s: tenants out of order: %s before %s", step, m.p.Tenants[i-1].ID, t.ID)
		}
	}
	if m.p.Epoch < m.epoch {
		m.t.Fatalf("%s: epoch went back %d → %d", step, m.epoch, m.p.Epoch)
	}
	m.epoch = m.p.Epoch
}

// TestPlacementDecisionsProperty drives random sequences of shard kills and
// respawns, migrations (finished, rolled back, or crashed after the drain),
// failing admits and resumes over random observed residency through the
// placement's pure decisions, checking the router's invariants after every
// step.
func TestPlacementDecisionsProperty(t *testing.T) {
	for seed := int64(1); seed <= 600; seed++ {
		m := newPlacementModel(t, seed)
		m.check("bootstrap")
		for step := 0; step < 40; step++ {
			name := m.step()
			m.check(fmt.Sprintf("seed %d step %d %s", seed, step, name))
		}
	}
}

// step takes one random step and names it.
func (m *placementModel) step() string {
	switch k := m.rng.Intn(10); {
	case k < 2:
		m.kill()
		return "kill"
	case k < 4:
		m.respawn()
		return "respawn"
	case k < 7:
		if m.migrate() {
			m.resume()
			return "migrate-crash+resume"
		}
		return "migrate"
	case k < 9:
		m.resume()
		return "resume"
	}
	for _, ts := range m.p.Tenants {
		if ts.Shard != "" {
			ts.Ticks++
		}
	}
	m.placeUnplaced(m.failP)
	return "round"
}

// The router commits its placement through ckpt's warmed gob encoder every
// round. placement holds no map, so the stream must be a fresh encoder's
// byte for byte, in every state the placement decisions reach.
func TestRouterStateEncodingMatchesFreshEncoder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := newPlacementModel(t, seed)
		for step := 0; step < 40; step++ {
			name := m.step()
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(m.p); err != nil {
				t.Fatal(err)
			}
			if got := mustEncode(t, m.p); !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("seed %d step %d %s: router state differs from a fresh encoder's:\n%s", seed, step, name, dumpPlacement(m.p))
			}
		}
	}
}

// fixturePlacement is what router_state_2754ce6.gob holds: a router state
// written by persistLocked at commit 2754ce6, before placement replaced the
// persisted mirror types — mid-migration (drained), with one dead slot.
func fixturePlacement() *placement {
	return &placement{
		Epoch: 3,
		Round: 12,
		Slots: []*ShardInfo{
			{Slot: 0, Addr: "127.0.0.1:17301", Alive: true},
			{Slot: 1, Addr: "127.0.0.1:17302", Alive: false, Respawns: 1},
			{Slot: 2, Addr: "127.0.0.1:17303", Alive: true},
		},
		Tenants: []*tenantState{
			{ID: "tenant-00", Shard: "127.0.0.1:17301", Ticks: 12, AuditLen: 4242, AuditFNV: 0x1122334455667788},
			{ID: "tenant-01", Ticks: 12},
			{ID: "tenant-02", Shard: "127.0.0.1:17303", Pinned: true, Ticks: 11, AuditLen: 17, AuditFNV: 0xfeedface, Brownout: 2},
		},
		Migration: &migrationRecord{Tenant: "tenant-01", From: "127.0.0.1:17301", To: "127.0.0.1:17303", Drained: true},
	}
}

// A router-state blob written before placement replaced the persisted
// mirror types decodes field for field, and a router resumes from it.
func TestParentRouterStateResumes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "router_state_2754ce6.gob"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRouterState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := fixturePlacement(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %s, want %s", dumpPlacement(got), dumpPlacement(want))
	}

	// The fixture's live slots, serving; its dead slot stays dark. Tenants
	// sit where the blob says, at the ticks it says, except the one the
	// migration drained.
	bundle := testBundle(t)
	dir := t.TempDir()
	setup := NewClient(1, nil)
	for _, addr := range []string{"127.0.0.1:17301", "127.0.0.1:17303"} {
		s := &ShardServer{Bundle: bundle, AuditDir: filepath.Join(dir, "audit")}
		if _, err := s.Serve(addr); err != nil {
			t.Skipf("the fixture's address %s is taken: %v", addr, err)
		}
		t.Cleanup(func() { s.Shutdown() })
		if err := setup.Configure(addr, testSpec()); err != nil {
			t.Fatal(err)
		}
	}
	for _, ts := range got.Tenants {
		if ts.Shard != "" {
			if _, err := setup.Admit(ts.Shard, ts.ID, ts.Ticks); err != nil {
				t.Fatal(err)
			}
		}
	}
	stateDir := filepath.Join(dir, "state")
	store, err := ckpt.NewNamespacedStore(stateDir, "router")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(&ckpt.Snapshot{At: 12, Ticks: 12, Opaque: blob}); err != nil {
		t.Fatal(err)
	}
	r, rep, err := ResumeRouter(durableRouterConfig(stateDir, nil))
	if err != nil {
		t.Fatalf("resume from the 2754ce6 blob: %v", err)
	}
	want := ReconcileReport{Epoch: 4, Round: 12, ShardsScanned: 2, ShardsDead: 1, Confirmed: 2,
		MigrationTenant: "tenant-01", MigrationAction: "rolled-forward"}
	if *rep != want {
		t.Fatalf("reconcile %+v, want %+v", *rep, want)
	}
	if got := r.Owner("tenant-01"); got != "127.0.0.1:17303" {
		t.Fatalf("migrating tenant on %q, want the target", got)
	}
	if err := r.RunRound(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range r.TenantStates() {
		if ts.Ticks != 13 {
			t.Errorf("tenant %s at %d ticks after round 13", ts.ID, ts.Ticks)
		}
	}
}

func dumpPlacement(p *placement) string {
	s := fmt.Sprintf("{Epoch:%d Round:%d Migration:%+v", p.Epoch, p.Round, p.Migration)
	for _, sl := range p.Slots {
		s += fmt.Sprintf(" slot%+v", *sl)
	}
	for _, t := range p.Tenants {
		s += fmt.Sprintf(" tenant%+v", *t)
	}
	return s + "}"
}

// FuzzDecodeRouterState hammers the router-state decoder: whatever bytes sit
// in the store, decoding never panics, and a decoded state re-encodes to one
// that decodes identically.
func FuzzDecodeRouterState(f *testing.F) {
	if blob, err := os.ReadFile(filepath.Join("testdata", "router_state_2754ce6.gob")); err == nil {
		f.Add(blob)
	}
	for _, p := range []*placement{{}, fixturePlacement(), {Epoch: 9, Slots: []*ShardInfo{{Addr: "a"}}, Migration: &migrationRecord{}}} {
		b, err := placementGob.Append(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("not a gob"))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeRouterState(b)
		if err != nil {
			return
		}
		again, err := placementGob.Append(nil, p)
		if err != nil {
			t.Fatalf("re-encode of a decoded state: %v", err)
		}
		q, err := decodeRouterState(again)
		if err != nil {
			t.Fatalf("decode of a re-encoded state: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("decode → encode → decode moved the state:\n%s\n%s", dumpPlacement(p), dumpPlacement(q))
		}
		if !bytes.Equal(again, mustEncode(t, q)) {
			t.Fatal("re-encoding is not deterministic")
		}
	})
}

func mustEncode(t *testing.T, p *placement) []byte {
	b, err := placementGob.Append(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
