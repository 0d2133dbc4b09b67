package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graf/internal/app"
	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/fleet"
	"graf/internal/gnn"
	"graf/internal/obs"
	"graf/internal/overload"
)

// testBundle builds the shard-local model artifact every test process
// shares: an untrained but deterministic model, exactly like the fleet
// package's own tests.
func testBundle(t testing.TB) ModelBundle {
	t.Helper()
	a := app.SyntheticChain(4)
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(42)))
	n := len(a.Services)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 100, 1500
	}
	return ModelBundle{
		Model:  m,
		Bounds: core.Bounds{Lo: lo, Hi: hi},
		SLO:    0.25, MinRate: 50, MaxRate: 400,
	}
}

func testSpec() Spec {
	return Spec{App: "chain-4", Shape: "const", Rate: 120, Seed: 7, TickS: 5}
}

func startShard(t *testing.T, bundle ModelBundle, ckptDir, auditDir string) (*ShardServer, string) {
	t.Helper()
	s := &ShardServer{Bundle: bundle, CkptDir: ckptDir, AuditDir: auditDir}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s, addr
}

func tenantIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return ids
}

// referenceAudit is ReferenceAudit, failing the test if the reference fleet
// cannot be built.
func referenceAudit(t *testing.T, bundle ModelBundle, spec Spec, ids []string, rounds int) map[string][]byte {
	t.Helper()
	want, err := ReferenceAudit(bundle, spec, ids, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestRingLookupStableAndMinimalMovement(t *testing.T) {
	r := newRing(64, "a:1", "b:2", "c:3")
	keys := tenantIDs(200)
	before := map[string]string{}
	for _, k := range keys {
		before[k] = r.Lookup(k)
		if before[k] == "" {
			t.Fatal("empty lookup on populated ring")
		}
		if got := r.Lookup(k); got != before[k] {
			t.Fatal("lookup not stable")
		}
	}
	r = newRing(64, "a:1", "c:3") // the same ring with b:2 dead
	moved := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if after == "b:2" {
			t.Fatal("removed member still owns keys")
		}
		if before[k] != "b:2" && after != before[k] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member moved — not consistent hashing", moved)
	}
}

// TestRingSpreadsSequentialTenantIDs: IDs that differ only in their last
// bytes ("tenant-00", "tenant-01", ...) must spread over the members. Plain
// fnv-1a barely moves its top bits for a change in the last byte, and the
// ring compares top bits first, so without a finalizer every such ID
// landed on one member.
func TestRingSpreadsSequentialTenantIDs(t *testing.T) {
	members := []string{"127.0.0.1:7711", "127.0.0.1:7712"}
	r := newRing(ringVNodes, members...)
	owned := map[string]int{}
	for i := 0; i < 16; i++ {
		owned[r.Lookup(fmt.Sprintf("tenant-%02d", i))]++
	}
	for _, m := range members {
		if owned[m] == 0 {
			t.Errorf("tenant-00…tenant-15: %s owns none (%v)", m, owned)
		}
	}
	clear(owned)
	const n = 1000
	for i := 0; i < n; i++ {
		owned[r.Lookup(fmt.Sprintf("tenant-%03d", i))]++
	}
	for _, m := range members {
		if owned[m] < n/4 {
			t.Errorf("tenant-000…tenant-999: %s owns %d of %d, want at least %d (%v)", m, owned[m], n, n/4, owned)
		}
	}
}

func TestClientRetriesAndBreaker(t *testing.T) {
	var calls atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			// Simulate a hung/dead shard: close without a response.
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{OK: true})
	}))
	defer ts.Close()
	shard := ts.Listener.Addr().String()

	c := newClient(1, nil)

	// One logical call against a dead shard makes breakerThreshold attempts:
	// the breaker opens on the last of them, before the retries run out, and
	// the next attempt fails fast.
	if err := c.call(shard, http.MethodGet, "/healthz", "health", nil, nil); err == nil {
		t.Fatal("expected failure against dead shard")
	}
	if got := calls.Load(); got != breakerThreshold {
		t.Fatalf("expected %d attempts, saw %d", breakerThreshold, got)
	}
	// Breaker now open: further calls fail fast without touching the wire.
	if err := c.call(shard, http.MethodGet, "/healthz", "health", nil, nil); err == nil {
		t.Fatal("expected breaker-open failure")
	}
	if got := calls.Load(); got != breakerThreshold {
		t.Fatalf("breaker-open call hit the network (%d attempts)", got)
	}

	// After the cooldown, the half-open probe goes through; with the shard
	// healthy again the breaker closes.
	failing.Store(false)
	time.Sleep(breakerCooldown + 10*time.Millisecond)
	if err := c.call(shard, http.MethodGet, "/healthz", "health", nil, nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if err := c.call(shard, http.MethodGet, "/healthz", "health", nil, nil); err != nil {
		t.Fatalf("closed-breaker call failed: %v", err)
	}
}

func TestShardServerLifecycle(t *testing.T) {
	bundle := testBundle(t)
	_, addr := startShard(t, bundle, t.TempDir(), t.TempDir())
	c := newClient(1, nil)

	if _, err := c.Health(addr); err != nil {
		t.Fatalf("health: %v", err)
	}
	// Tick before configure must be rejected, not crash.
	if err := c.Tick(addr, 1, &TickResponse{}); err == nil {
		t.Fatal("tick on unconfigured shard accepted")
	}
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatalf("configure: %v", err)
	}
	if _, err := c.Admit(addr, "t-a", 0); err != nil {
		t.Fatalf("admit: %v", err)
	}
	// A retried admit (first response lost in flight) is idempotent, not 409.
	if dup, err := c.Admit(addr, "t-a", 0); err != nil || dup.Status.ID != "t-a" {
		t.Fatalf("retried admit not idempotent: %+v err %v", dup, err)
	}
	var resp, resp2 TickResponse
	if err := c.Tick(addr, 3, &resp); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if len(resp.Statuses) != 1 || resp.Statuses[0].Ticks != 3 {
		t.Fatalf("tick response %+v: want tenant at 3 ticks", resp)
	}
	// Retried tick is a no-op (idempotent).
	err := c.Tick(addr, 3, &resp2)
	if err != nil || resp2.Statuses[0].Ticks != 3 || resp2.Statuses[0].AuditFNV != resp.Statuses[0].AuditFNV {
		t.Fatalf("retried tick changed state: %+v vs %+v (err %v)", resp2, resp, err)
	}
	q, err := c.Quotas(addr)
	if err != nil || len(q.Quotas["t-a"]) == 0 {
		t.Fatalf("quotas: %+v err %v", q, err)
	}
	d, err := c.Decisions(addr, "t-a")
	if err != nil || len(d.Records) == 0 {
		t.Fatalf("decisions: %d records, err %v", len(d.Records), err)
	}
	ck, err := c.Checkpoint(addr)
	if err != nil || ck.Saved != 1 {
		t.Fatalf("checkpoint: %+v err %v", ck, err)
	}
	ev, err := c.Evict(addr, "t-a", false)
	if err != nil || ev.Status.Ticks != 3 || ev.Missing {
		t.Fatalf("evict: %+v err %v", ev, err)
	}
	// A retried evict (first response lost in flight) succeeds with Missing
	// set instead of 404 — a mid-migration retry must not abort the drain.
	ev2, err := c.Evict(addr, "t-a", false)
	if err != nil || !ev2.Missing {
		t.Fatalf("retried evict not idempotent: %+v err %v", ev2, err)
	}
}

// A retried admit whose first attempt succeeded must fast-forward the
// resident tenant to the requested tick count, so a lost admit response
// during recovery cannot strand the tenant behind the round clock.
func TestAdmitRetryFastForwards(t *testing.T) {
	bundle := testBundle(t)
	_, addr := startShard(t, bundle, "", t.TempDir())
	c := newClient(1, nil)
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatal(err)
	}
	first, err := c.Admit(addr, "t-a", 2)
	if err != nil || first.Status.Ticks != 2 {
		t.Fatalf("admit at tick 2: %+v err %v", first, err)
	}
	// Same request again (idempotent no-op), then a later-tick retry.
	again, err := c.Admit(addr, "t-a", 2)
	if err != nil || again.Status.Ticks != 2 || again.Status.AuditFNV != first.Status.AuditFNV {
		t.Fatalf("same-tick retry changed state: %+v vs %+v (err %v)", again, first, err)
	}
	fwd, err := c.Admit(addr, "t-a", 4)
	if err != nil || fwd.Status.Ticks != 4 {
		t.Fatalf("retry at tick 4 did not fast-forward: %+v err %v", fwd, err)
	}
}

// /healthz must answer even while a long-running handler holds the fleet
// mutex — otherwise a slow round makes all heartbeat probes time out and a
// live shard gets declared dead (and its tenants double-placed).
func TestHealthzAnswersWhileMutexHeld(t *testing.T) {
	bundle := testBundle(t)
	s, addr := startShard(t, bundle, "", "")
	c := newClient(1, nil)
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(addr, "t-a", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(addr, 2, &TickResponse{}); err != nil {
		t.Fatal(err)
	}
	// Simulate a tick that outlasts the probe timeout.
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		h, err := c.Health(addr)
		if err == nil && (h.Round != 2 || h.Tenants != 1) {
			err = fmt.Errorf("stale health %+v, want round 2 / 1 tenant", h)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("health probe under held mutex: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("health probe blocked on the fleet mutex")
	}
}

// postGuarded serves one POST on h from a goroutine and returns its status. A
// handler still running after 10 s of wall time fails t, so a shard that runs
// a runaway request fails the test instead of hanging the suite.
func postGuarded(t testing.TB, h http.Handler, path string, body []byte) int {
	t.Helper()
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		return code
	case <-time.After(10 * time.Second):
		t.Fatalf("POST %s %s still running after 10 s of wall time", path, body)
		return 0
	}
}

// configuredHandler returns a shard configured with spec, served in-process.
// It keeps its audit in memory and listens on nothing, so it needs no
// shutdown (and a test whose handler is stuck holding the shard's mutex
// must not try one).
func configuredHandler(t testing.TB, spec Spec) (*ShardServer, http.Handler) {
	t.Helper()
	s := &ShardServer{Bundle: testBundle(t)}
	h := s.Handler()
	body, err := json.Marshal(configureRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if code := postGuarded(t, h, "/v1/configure", body); code != http.StatusOK {
		t.Fatalf("configure: status %d", code)
	}
	return s, h
}

// A tick round or admit tick count whose simulated time passes the horizon
// bound gets a 400 before the fleet moves. The shard would run all of it
// under its mutex, and a round of 1e12 never returns. FuzzTickAdmitDecode's
// seeds hold the bound's edge, on a shard with no tenant to tick.
func TestTickAndAdmitRejectRunawayHorizons(t *testing.T) {
	s, h := configuredHandler(t, testSpec())
	if code := postGuarded(t, h, "/v1/admit", []byte(`{"id":"t-a","ticks":2}`)); code != http.StatusOK {
		t.Fatalf("admit at tick 2: status %d", code)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/tick", `{"round":1000000000000}`},
		{"/v1/admit", `{"id":"t-a","ticks":1000000000000}`}, // resident: a fast-forward
		{"/v1/admit", `{"id":"t-b","ticks":1000000000000}`}, // new: a restore
	} {
		if code := postGuarded(t, h, c.path, []byte(c.body)); code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.path, c.body, code)
		}
	}
	if ts := s.fl.Tenants(); len(ts) != 1 || ts[0].ID != "t-a" || ts[0].Ticks() != 2 {
		t.Errorf("rejected requests moved the fleet: %d tenants, want t-a alone at tick 2", len(ts))
	}
}

// A tick's response reuses one status slice across rounds and still writes
// the bytes a freshly built response does: the live tenants only, and null
// for a shard with none.
func TestTickResponseBytes(t *testing.T) {
	s, h := configuredHandler(t, testSpec())
	round := 0
	tick := func(want int) {
		t.Helper()
		round++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tick", bytes.NewReader(fmt.Appendf(nil, `{"round":%d}`, round))))
		fresh := TickResponse{Round: round}
		for _, tn := range s.fl.Tenants() {
			fresh.Statuses = append(fresh.Statuses, status(tn))
		}
		wantBody, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || rec.Body.String() != string(wantBody)+"\n" || len(fresh.Statuses) != want {
			t.Errorf("round %d: status %d, body %s, want %s with %d statuses", round, rec.Code, rec.Body, wantBody, want)
		}
	}
	post := func(path, body string) {
		t.Helper()
		if code := postGuarded(t, h, path, []byte(body)); code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d", path, body, code)
		}
	}
	tick(0)
	post("/v1/admit", `{"id":"t-a","ticks":1}`)
	post("/v1/admit", `{"id":"t-b","ticks":1}`)
	tick(2)
	post("/v1/evict", `{"id":"t-a"}`)
	tick(1)
	post("/v1/evict", `{"id":"t-b"}`)
	tick(0)
}

// Planned migration: drain on one shard, rebuild + fast-forward on another,
// audit fingerprint verified exactly; the run then finishes byte-identical
// to the single-process reference.
func TestRouterMigrationLossless(t *testing.T) {
	bundle := testBundle(t)
	ckpt, audit := t.TempDir(), t.TempDir()
	_, addr1 := startShard(t, bundle, ckpt, audit)
	_, addr2 := startShard(t, bundle, ckpt, audit)

	spec := testSpec()
	ids := tenantIDs(6)
	const rounds = 8
	r, err := NewRouter(RouterConfig{Spec: spec, Tenants: ids}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(rounds / 2); err != nil {
		t.Fatal(err)
	}

	// Move one tenant from its current shard to the other one.
	id := ids[0]
	from := r.Owner(id)
	to := addr1
	if from == addr1 {
		to = addr2
	}
	d, err := r.Migrate(id, to)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if d <= 0 {
		t.Fatal("migration blackout not measured")
	}
	if got := r.Owner(id); got != to {
		t.Fatalf("tenant on %s after migration, want %s", got, to)
	}
	if err := r.RunRounds(rounds / 2); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Migrations != 1 || st.LostDecisions != 0 {
		t.Fatalf("stats %+v: want 1 lossless migration", st)
	}
	if st.SnapshotVerified == 0 {
		t.Fatal("migration restore was not verified against the checkpoint digest")
	}

	want := referenceAudit(t, bundle, spec, ids, rounds)
	for _, ts := range r.TenantStates() {
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil {
			t.Fatalf("tenant %s: %v", ts.ID, err)
		}
		if !bytes.Equal(b, want[ts.ID]) {
			t.Errorf("tenant %s: audit log differs from single-process reference (%d vs %d bytes)",
				ts.ID, len(b), len(want[ts.ID]))
		}
	}
}

// The acceptance scenario: two shard processes, one killed mid-run without
// warning. The router must detect the missed heartbeats, reassign the dead
// shard's tenants to the survivor, replay their audit tails, and finish
// with every tenant byte-identical to an unkilled single-process run.
func TestRouterShardLossByteIdentical(t *testing.T) {
	bundle := testBundle(t)
	ckptDir, audit := t.TempDir(), t.TempDir()
	s1, addr1 := startShard(t, bundle, ckptDir, audit)
	s2, addr2 := startShard(t, bundle, ckptDir, audit)

	spec := testSpec()
	ids := tenantIDs(8)
	const rounds = 10
	cfg := RouterConfig{
		Spec: spec, Tenants: ids,
		Respawn: nil, // no respawn: force reassignment
		Logf:    t.Logf,
	}
	r, err := NewRouter(cfg, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(rounds / 2); err != nil {
		t.Fatal(err)
	}

	// SIGKILL equivalent: the HTTP server dies instantly; buffered audit
	// bytes in its tenants' recorders are lost, flushed bytes survive on
	// disk — exactly a crashed process's disk state. Kill whichever shard
	// owns tenants (the ring may have concentrated this small population).
	victim, victimAddr := s1, addr1
	owners := map[string]int{}
	for _, id := range ids {
		owners[r.Owner(id)]++
	}
	if owners[addr2] > owners[addr1] {
		victim, victimAddr = s2, addr2
	}
	if owners[victimAddr] == 0 {
		t.Fatalf("no tenants on victim shard (placement %v)", owners)
	}
	victim.srv.Close()

	if err := r.RunRounds(rounds - rounds/2); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Reassignments == 0 {
		t.Fatalf("stats %+v: shard death did not trigger reassignment", st)
	}
	if st.LostDecisions != 0 {
		t.Fatalf("stats %+v: lost decisions", st)
	}
	if st.RecoveryBlackoutMS <= 0 {
		t.Fatalf("stats %+v: recovery blackout not measured", st)
	}

	want := referenceAudit(t, bundle, spec, ids, rounds)
	for _, ts := range r.TenantStates() {
		if ts.Ticks < rounds {
			t.Errorf("tenant %s: only %d/%d ticks after recovery", ts.ID, ts.Ticks, rounds)
		}
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil {
			t.Fatalf("tenant %s: %v", ts.ID, err)
		}
		if !bytes.Equal(b, want[ts.ID]) {
			t.Errorf("tenant %s: audit log differs from unkilled single-process reference (%d vs %d bytes)",
				ts.ID, len(b), len(want[ts.ID]))
		}
	}
}

// A respawnable shard slot is restarted in place within the restart budget,
// and its tenants restored onto the fresh process losslessly.
func TestRouterRespawnWithinBudget(t *testing.T) {
	bundle := testBundle(t)
	ckptDir, audit := t.TempDir(), t.TempDir()
	s1, addr1 := startShard(t, bundle, ckptDir, audit)
	s2, addr2 := startShard(t, bundle, ckptDir, audit)

	spec := testSpec()
	ids := tenantIDs(6)
	respawned := 0
	cfg := RouterConfig{
		Spec: spec, Tenants: ids,
		RestartBudget: 1,
		Respawn: func(slot int) (string, error) {
			respawned++
			s := &ShardServer{Bundle: bundle, CkptDir: ckptDir, AuditDir: audit}
			addr, err := s.Serve("127.0.0.1:0")
			return addr, err
		},
		Logf: t.Logf,
	}
	r, err := NewRouter(cfg, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	victim := s1
	owners := map[string]int{}
	for _, id := range ids {
		owners[r.Owner(id)]++
	}
	if owners[addr2] > owners[addr1] {
		victim = s2
	}
	victim.srv.Close()
	if err := r.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if respawned != 1 || st.Respawns != 1 {
		t.Fatalf("respawned %d times (stats %+v), want 1", respawned, st)
	}
	if st.Reassignments != 0 {
		t.Fatalf("stats %+v: respawn should not reassign", st)
	}
	if st.LostDecisions != 0 {
		t.Fatalf("stats %+v: lost decisions across respawn", st)
	}
	want := referenceAudit(t, bundle, spec, ids, 8)
	for _, ts := range r.TenantStates() {
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil {
			t.Fatalf("tenant %s: %v", ts.ID, err)
		}
		if !bytes.Equal(b, want[ts.ID]) {
			t.Errorf("tenant %s: audit log differs from reference after respawn", ts.ID)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	phase := func(from, to int, step overload.Step) []fleet.BrownoutPhase {
		return []fleet.BrownoutPhase{{FromTick: from, ToTick: to, Step: step}}
	}
	cases := []Spec{
		{},                                 // no app
		{App: "nope", Rate: 100},           // unknown app
		{App: "chain-99999999", Rate: 100}, // a chain no process should build
		{App: "chain-4", Rate: 0},          // no rate
		{App: "chain-4", Rate: 1, Shape: "zigzag"},                        // unknown shape
		{App: "chain-4", Rate: 1, Brownout: phase(0, 0, 9)},               // step past the ladder
		{App: "chain-4", Rate: 1, Brownout: phase(0, 0, -3)},              // step before it
		{App: "chain-4", Rate: 1, Brownout: phase(-1, 0, 1)},              // negative FROM
		{App: "chain-4", Rate: 1, Brownout: phase(6, 6, 1)},               // TO not above FROM
		{App: "chain-4", Rate: 1, Brownout: phase(6, 3, 1)},               // TO below FROM
		{App: "chain-4", Rate: 1, SLOMS: -5},                              // negative SLO
		{App: "chain-4", Rate: 1, SLOBudget: &obs.SLOConfig{Budget: 1}},   // whole time in violation
		{App: "chain-4", Rate: 1, DurS: -1},                               // negative horizon
		{App: "chain-4", Rate: 1, DurS: maxDurS + 1},                      // absurd horizon
		{App: "chain-4", Rate: 1, TickS: maxDurS + 1},                     // one tick past the horizon bound
		{App: "chain-4", Rate: 1, TickS: 1e308},                           // a tick that never ends
		{App: "chain-4", Rate: 1, TickS: math.Inf(1)},                     // infinite tick
		{App: "chain-4", Rate: 1, TickS: math.NaN()},                      // NaN tick
		{App: "chain-4", Rate: 1, TickS: 0.999},                           // just under the quantum floor
		{App: "chain-4", Rate: 1, TickS: 1e-300},                          // maxDurS s of ticks in one request
		{App: "chain-4", Rate: 1, TickS: -1},                              // negative tick
		{App: "chain-4", Rate: 1, Workers: maxWorkers + 1},                // too many workers
		{App: "chain-4", Rate: 1, Workers: 2e9},                           // a shard slot per worker
		{App: "chain-4", Rate: 1, Forecast: "lstm"},                       // unknown forecaster
		{App: "chain-4", Rate: 1, HorizonTicks: 3},                        // horizon without forecast
		{App: "chain-4", Rate: 1, ForecastQuantile: 0.9},                  // quantile without forecast
		{App: "chain-4", Rate: 1, Forecast: "hw", HorizonTicks: -1},       // negative horizon
		{App: "chain-4", Rate: 1, Forecast: "hw", ForecastQuantile: 1},    // quantile at one
		{App: "chain-4", Rate: 1, Forecast: "hw", ForecastQuantile: -0.5}, // negative quantile
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid spec accepted", i, s)
		}
	}
	valid := []Spec{
		testSpec(),
		{App: "chain-4", Rate: 1, Shape: "diurnal", DurS: 600, Forecast: "hw", HorizonTicks: 4, ForecastQuantile: 0.9},
		{App: "chain-4", Rate: 1, Shape: "azure", Lifecycle: true, SLOMS: 200},
		{App: "chain-4", Rate: 1, Brownout: phase(6, 12, overload.StepHold), SLOBudget: &obs.SLOConfig{Budget: 0.02}},
		{App: "chain-4", Rate: 1, TickS: maxDurS, Workers: maxWorkers},
		{App: "chain-4", Rate: 1, TickS: minTickS},
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
}

// The policies this spec grew — a seeded diurnal source under a Holt-Winters
// forecaster, and the per-tenant model lifecycle (the untrained test model
// drifts at once, so the tenant trips, retrains and promotes mid-run) — must
// be as portable as the old ones: a tenant migrated between shards mid-run
// finishes byte-identical to the single-process reference. The lifecycle
// tenant migrates in the middle of a canary probation window, so the adopting
// shard must resume the window where it stood: no spurious rollback, and the
// candidate earns full trust on the same tick.
func TestNewPolicySpecsMigrateLossless(t *testing.T) {
	bundle := testBundle(t)
	for _, c := range []struct {
		name, marker string
		tenants      int
		rounds       int
		spec         Spec
	}{
		// Holt-Winters forecasts once it has seen one 48-tick cycle.
		{"diurnal+forecast", `"type":"forecast"`, 2, 64, Spec{App: "chain-4", Shape: "diurnal", Rate: 120, Seed: 7,
			TickS: 5, DurS: 320, WarmStart: true, Forecast: "hw"}},
		// The tenant trips at tick 11, retrains at 25, is promoted at 35 and
		// earns full trust at 59: the migration after round 48 lands inside
		// the 24-tick probation window. One tenant: a retrain costs about a
		// second (fifteen under -race), here and in the reference.
		{"lifecycle", `"kind":"promote"`, 1, 64, Spec{App: "chain-4", Shape: "const", Rate: 60, Seed: 1,
			TickS: 5, Lifecycle: true, SLOMS: 300}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, rounds := c.spec, c.rounds
			ckpt, audit := t.TempDir(), t.TempDir()
			_, addr1 := startShard(t, bundle, ckpt, audit)
			_, addr2 := startShard(t, bundle, ckpt, audit)
			ids := tenantIDs(c.tenants)
			// The restoring admit re-executes up to 48 ticks, a retrain among
			// them: 1.3 s under -race on 2 vCPUs, inside attemptTimeout. An
			// attempt that timed out would be retried into the idempotent
			// path, which restores nothing and so verifies nothing.
			r, err := NewRouter(RouterConfig{Spec: spec, Tenants: ids}, []string{addr1, addr2})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			if err := r.RunRounds(3 * rounds / 4); err != nil {
				t.Fatal(err)
			}
			to := addr1
			if r.Owner(ids[0]) == addr1 {
				to = addr2
			}
			if _, err := r.Migrate(ids[0], to); err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if err := r.RunRounds(rounds / 4); err != nil {
				t.Fatal(err)
			}
			if st := r.Stats(); st.LostDecisions != 0 || st.SnapshotVerified == 0 {
				t.Fatalf("stats %+v: want a lossless, snapshot-verified migration", st)
			}
			want := referenceAudit(t, bundle, spec, ids, rounds)
			for _, id := range ids {
				b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(id)+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, want[id]) {
					t.Errorf("tenant %s: audit log differs from single-process reference (%d vs %d bytes)", id, len(b), len(want[id]))
				}
			}
			// The policy must have acted, or byte-identity proves nothing new.
			if !bytes.Contains(want[ids[0]], []byte(c.marker)) {
				t.Errorf("reference audit carries no %s record: the policy never acted", c.marker)
			}
			if spec.Lifecycle {
				assertMigratedInProbation(t, want[ids[0]], rounds, 3*rounds/4)
			}
		})
	}
}

// assertMigratedInProbation checks, on a lifecycle tenant's reference audit,
// that the migration after round mig fell inside a probation window: a
// promotion precedes the first decision of round mig+1, no "trusted" record
// closes the window before it, and no rollback follows the promotion.
func assertMigratedInProbation(t *testing.T, audit []byte, rounds, mig int) {
	t.Helper()
	recs, err := obs.ReadLog(bytes.NewReader(audit))
	if err != nil {
		t.Fatal(err)
	}
	var decisions []float64
	for _, r := range recs {
		if r.Type == "decision" {
			decisions = append(decisions, r.At)
		}
	}
	if len(decisions) != rounds {
		t.Fatalf("%d decision records for %d rounds", len(decisions), rounds)
	}
	migAt := decisions[mig]
	promotedAt, open := 0.0, false
	for _, r := range recs {
		if r.Type != "lifecycle" {
			continue
		}
		if r.Kind == "rollback" && open {
			t.Errorf("t=%.1f: rollback after the promotion at t=%.1f: %s", r.At, promotedAt, r.Detail)
		}
		if r.At < migAt {
			switch r.Kind {
			case "promote":
				promotedAt, open = r.At, true
			case "trusted":
				open = false
			}
		}
	}
	if !open {
		t.Fatalf("no probation window open at the migration (first adopted decision t=%.1f)", migAt)
	}
}

// chaos.NetInjector must satisfy the client's FaultInjector seam
// structurally, and the retry/backoff discipline must ride out seeded
// request drops without losing a round or a decision.
func TestRouterSurvivesInjectedDrops(t *testing.T) {
	bundle := testBundle(t)
	audit := t.TempDir()
	_, addr1 := startShard(t, bundle, "", audit)
	_, addr2 := startShard(t, bundle, "", audit)

	spec := testSpec()
	ids := tenantIDs(5)
	const rounds = 6
	inj := chaos.NewNetInjector(chaos.NetScenario{
		Seed: 13,
		Events: []chaos.NetEvent{
			chaos.Drop(1, rounds, "", 0.3),
			chaos.Delay(1, rounds, "", 0.2, 3),
		},
	})
	var fault FaultInjector = inj // compile-time structural check
	// The breaker opens at breakerThreshold = 3, before the retries run out,
	// so retries are not what bounds a tick under a 30% drop storm: three
	// drops in a row
	// (0.3^3 ≈ 3% of calls) open the breaker and fail the call whatever
	// retries are left. The router must survive that — the heartbeat-ok
	// verdict resets the breaker and the round is re-ticked, on attempt
	// numbers that continue where the failed call stopped, so the re-tick
	// draws fresh verdicts instead of the three drops again. A round is lost
	// only to twelve straight drops (four ticks of three), and the stream is
	// fixed by the seed and the slot names: this run is the same every time.
	r, err := NewRouter(RouterConfig{Spec: spec, Tenants: ids, Fault: fault}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.LostDecisions != 0 {
		t.Fatalf("stats %+v: drops lost decisions", st)
	}
	want := referenceAudit(t, bundle, spec, ids, rounds)
	for _, ts := range r.TenantStates() {
		if ts.Ticks != rounds {
			t.Errorf("tenant %s: %d/%d ticks under drops", ts.ID, ts.Ticks, rounds)
		}
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil || !bytes.Equal(b, want[ts.ID]) {
			t.Errorf("tenant %s: audit log differs from reference under injected drops (err %v)", ts.ID, err)
		}
	}
}

// A migration whose drain succeeds but whose restore fails must roll the
// tenant back onto its source shard — never leave it running nowhere — and
// the run must continue byte-identical afterwards.
func TestMigrateRollbackOnRestoreFailure(t *testing.T) {
	bundle := testBundle(t)
	audit := t.TempDir()
	s1, addr1 := startShard(t, bundle, "", audit)
	s2, addr2 := startShard(t, bundle, "", audit)

	spec := testSpec()
	ids := tenantIDs(1)
	r, err := NewRouter(RouterConfig{
		Spec: spec, Tenants: ids,
		Logf: t.Logf,
	}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(2); err != nil {
		t.Fatal(err)
	}

	id := ids[0]
	from := r.Owner(id)
	to, victim := addr1, s1
	if from == addr1 {
		to, victim = addr2, s2
	}
	// Kill the target between target-liveness check and restore: the drain
	// on the source succeeds, the admit on the target cannot.
	victim.srv.Close()
	if _, err := r.Migrate(id, to); err == nil {
		t.Fatal("migration onto a dead shard reported success")
	}
	if got := r.Owner(id); got != from {
		t.Fatalf("tenant on %q after failed migration, want rollback to %s", got, from)
	}
	if st := r.Stats(); st.Migrations != 0 {
		t.Fatalf("stats %+v: failed migration counted", st)
	}
	// Subsequent rounds must run (the dead target gets declared dead and
	// dropped) and the tenant's audit stream must stay lossless.
	if err := r.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	want := referenceAudit(t, bundle, spec, ids, 4)
	b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(id)+".jsonl"))
	if err != nil || !bytes.Equal(b, want[id]) {
		t.Fatalf("tenant %s: audit log differs from reference after rollback (err %v)", id, err)
	}
}

// Observers (Stats/Shards/Owner/TenantStates/Round) must be safe to call
// concurrently with the round loop, including while it recovers from a
// shard death — the locking regression this pins down was mutating slots,
// the ring, and the round counter outside r.mu.
func TestRouterObserversConcurrentWithRounds(t *testing.T) {
	bundle := testBundle(t)
	audit := t.TempDir()
	_, addr1 := startShard(t, bundle, "", audit)
	s2, addr2 := startShard(t, bundle, "", audit)

	spec := testSpec()
	ids := tenantIDs(4)
	r, err := NewRouter(RouterConfig{
		Spec: spec, Tenants: ids,
	}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Round()
			r.Stats()
			r.Shards()
			r.TenantStates()
			r.Owner(ids[0])
		}
	}()

	if err := r.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	s2.srv.Close() // exercise the recovery path under observation
	if err := r.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if st := r.Stats(); st.LostDecisions != 0 {
		t.Fatalf("stats %+v: lost decisions", st)
	}
}
