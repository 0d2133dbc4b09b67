package rpc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"graf/internal/fleet"
)

// readAuditFiles returns the durable per-tenant audit bytes from auditDir.
func readAuditFiles(t *testing.T, auditDir string, ids []string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(auditDir, fleet.SanitizeID(id)+".jsonl"))
		if err != nil {
			t.Fatalf("read audit for %s: %v", id, err)
		}
		out[id] = b
	}
	return out
}

// assertAuditsIdentical compares a distributed run's durable audit files
// against the single-process reference, byte for byte.
func assertAuditsIdentical(t *testing.T, ref, got map[string][]byte) {
	t.Helper()
	for id, want := range ref {
		g, ok := got[id]
		if !ok {
			t.Fatalf("tenant %s missing from distributed run", id)
		}
		if !bytes.Equal(g, want) {
			t.Fatalf("tenant %s: audit diverged (got %d bytes, reference %d)", id, len(g), len(want))
		}
	}
}

// durableRouterConfig builds a crash-safe router config over a shared state
// dir, mirroring how grafrouter wires a real fleet.
func durableRouterConfig(stateDir string, ids []string) RouterConfig {
	return RouterConfig{
		Spec:     testSpec(),
		Tenants:  ids,
		StateDir: stateDir,
	}
}

// TestEpochFencingRejectsStaleRouter drives a shard with epoch 2, then
// asserts every mutating call from an epoch-1 client is rejected with the
// typed 409 while epoch-unaware and read-only calls keep working — and that
// the shard's fenced-accepted tripwire stays zero.
func TestEpochFencingRejectsStaleRouter(t *testing.T) {
	dir := t.TempDir()
	_, addr := startShard(t, testBundle(t), filepath.Join(dir, "ckpt"), filepath.Join(dir, "audit"))

	cur := newClient(1, nil)
	cur.SetEpoch(2)
	if err := cur.Configure(addr, testSpec()); err != nil {
		t.Fatalf("configure at epoch 2: %v", err)
	}
	if _, err := cur.Admit(addr, "tenant-00", 0); err != nil {
		t.Fatalf("admit at epoch 2: %v", err)
	}

	stale := newClient(1, nil)
	stale.SetEpoch(1)
	if err := stale.Tick(addr, 1, &TickResponse{}); !IsFenced(err) || !errors.Is(err, errFencedEpoch) {
		t.Fatalf("stale tick: got %v, want fenced 409", err)
	}
	if _, err := stale.Admit(addr, "tenant-01", 0); !IsFenced(err) {
		t.Fatalf("stale admit: got %v, want fenced 409", err)
	}
	if _, err := stale.Evict(addr, "tenant-00", false); !IsFenced(err) {
		t.Fatalf("stale evict: got %v, want fenced 409", err)
	}
	var re *remoteError
	err := stale.Tick(addr, 1, &TickResponse{})
	if !errors.As(err, &re) || re.Status != 409 || re.Epoch != 2 {
		t.Fatalf("fenced rejection should be a 409 carrying the shard's fence, got %+v", re)
	}

	// Reads are deliberately unfenced (a standby needs /v1/tenants before it
	// owns an epoch), and epoch-unaware callers keep the legacy protocol.
	if _, err := stale.Tenants(addr); err != nil {
		t.Fatalf("stale read should pass the fence: %v", err)
	}
	legacy := newClient(1, nil)
	if err := legacy.Tick(addr, 1, &TickResponse{}); err != nil {
		t.Fatalf("epoch-unaware tick should pass the fence: %v", err)
	}

	h, err := cur.Health(addr)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 2 {
		t.Fatalf("shard fence = %d, want 2", h.Epoch)
	}
	if h.FencedRejected < 3 {
		t.Fatalf("fenced_rejected = %d, want >= 3", h.FencedRejected)
	}
	if h.FencedAccepted != 0 {
		t.Fatalf("fenced_accepted = %d — a stale mutation EXECUTED", h.FencedAccepted)
	}
}

// TestShardFenceSurvivesRestart asserts the durable epoch floor: a fresh
// shard process over the same checkpoint dir starts with the fence the
// previous generation persisted, so even a respawned shard rejects a zombie.
func TestShardFenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	_, addr := startShard(t, testBundle(t), ckptDir, "")
	c := newClient(1, nil)
	c.SetEpoch(7)
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatal(err)
	}

	_, addr2 := startShard(t, testBundle(t), ckptDir, "")
	h, err := c.Health(addr2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 7 {
		t.Fatalf("restarted shard fence = %d, want 7 (loaded from epoch.fence)", h.Epoch)
	}
	stale := newClient(1, nil)
	stale.SetEpoch(6)
	if err := stale.Configure(addr2, testSpec()); !IsFenced(err) {
		t.Fatalf("restarted shard accepted stale epoch: %v", err)
	}
}

// TestRouterResumeByteIdentical kills the router (by abandoning it) after
// three rounds, resumes a new generation from the durable state, runs three
// more, and asserts the per-tenant audit streams are byte-identical to an
// uninterrupted single-process reference — zero lost decisions across a
// router death.
func TestRouterResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "ckpt")
	auditDir := filepath.Join(dir, "audit")
	bundle := testBundle(t)
	ids := tenantIDs(4)
	shards := shardAddrs(t, bundle, stateDir, auditDir, 2)

	r1, err := NewRouter(durableRouterConfig(stateDir, ids), shards)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Epoch() != 1 {
		t.Fatalf("fresh router epoch = %d, want 1", r1.Epoch())
	}
	if err := r1.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := runRounds(r1, 3); err != nil {
		t.Fatal(err)
	}
	// r1 is never used again: the in-process stand-in for SIGKILL (the
	// process drill in cmd/grafbench kills a real one).

	cfg := durableRouterConfig(stateDir, nil)
	r2, rep, err := resumeRouter(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if r2.Epoch() != 2 {
		t.Fatalf("resumed epoch = %d, want 2", r2.Epoch())
	}
	if rep.Round != 3 {
		t.Fatalf("resumed at round %d, want 3", rep.Round)
	}
	if rep.Confirmed != len(ids) || rep.Adopted != 0 || rep.Orphaned != 0 {
		t.Fatalf("clean resume reconcile: %+v, want all %d confirmed", rep, len(ids))
	}
	if err := runRounds(r2, 3); err != nil {
		t.Fatal(err)
	}
	if got := r2.Round(); got != 6 {
		t.Fatalf("round sequence = %d, want 6 (continued, not restarted)", got)
	}

	ref := referenceAudit(t, bundle, testSpec(), ids, 6)
	assertAuditsIdentical(t, ref, readAuditFiles(t, auditDir, ids))
	if st := r2.Stats(); st.LostDecisions != 0 {
		t.Fatalf("lost decisions = %d, want 0", st.LostDecisions)
	}
}

// shardAddrs starts n shards over the shared dirs and returns their
// addresses. (Separate from startShard so tests control the count inline.)
func shardAddrs(t *testing.T, bundle ModelBundle, ckptDir, auditDir string, n int) []string {
	t.Helper()
	// The two shards started by the caller via startShard are NOT reused:
	// this helper owns its own so the addr list is self-contained.
	var addrs []string
	for i := 0; i < n; i++ {
		_, addr := startShard(t, bundle, ckptDir, auditDir)
		addrs = append(addrs, addr)
	}
	return addrs
}

// TestCrashMidMigrationRollsForward aims the failpoint at the migration
// crash window — drained off the source, restored nowhere — and asserts the
// resumed generation rolls the move forward onto the target and the fleet's
// audit streams stay byte-identical to the uninterrupted reference.
func TestCrashMidMigrationRollsForward(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "ckpt")
	auditDir := filepath.Join(dir, "audit")
	bundle := testBundle(t)
	ids := tenantIDs(4)
	shards := shardAddrs(t, bundle, stateDir, auditDir, 2)

	errCrash := errors.New("failpoint: simulated SIGKILL")
	cfg := durableRouterConfig(stateDir, ids)
	cfg.Failpoint = func(site string) error {
		if site == "migrate-after-drain" {
			return errCrash
		}
		return nil
	}
	r1, err := NewRouter(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := runRounds(r1, 2); err != nil {
		t.Fatal(err)
	}
	// Pick a tenant and a target it does not live on.
	var victim, target string
	for _, id := range ids {
		owner := r1.Owner(id)
		for _, s := range shards {
			if s != owner {
				victim, target = id, s
			}
		}
	}
	if _, err := r1.Migrate(victim, target); !errors.Is(err, errCrash) {
		t.Fatalf("migrate should die at the failpoint, got %v", err)
	}
	// The crash left the tenant drained and unplaced — exactly the window.

	r2, rep, err := resumeRouter(durableRouterConfig(stateDir, nil))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.MigrationTenant != victim || rep.MigrationAction != "rolled-forward" {
		t.Fatalf("reconcile migration = %s:%s, want %s:rolled-forward",
			rep.MigrationTenant, rep.MigrationAction, victim)
	}
	if got := r2.Owner(victim); got != target {
		t.Fatalf("victim owned by %s after roll-forward, want %s", got, target)
	}
	if err := runRounds(r2, 3); err != nil {
		t.Fatal(err)
	}
	if err := r2.Settle(); err != nil {
		t.Fatal(err)
	}

	ref := referenceAudit(t, bundle, testSpec(), ids, 5)
	assertAuditsIdentical(t, ref, readAuditFiles(t, auditDir, ids))
	if st := r2.Stats(); st.LostDecisions != 0 {
		t.Fatalf("lost decisions = %d, want 0", st.LostDecisions)
	}
}

// TestZombieRouterCannotMutate resumes a successor while the old generation
// still runs, then asserts the zombie's next round is fenced out by every
// shard with zero accepted writes, while the successor keeps the fleet
// byte-identical to the reference.
func TestZombieRouterCannotMutate(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "ckpt")
	auditDir := filepath.Join(dir, "audit")
	bundle := testBundle(t)
	ids := tenantIDs(4)
	shards := shardAddrs(t, bundle, stateDir, auditDir, 2)

	zombie, err := NewRouter(durableRouterConfig(stateDir, ids), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := zombie.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := runRounds(zombie, 2); err != nil {
		t.Fatal(err)
	}

	// Takeover while the old generation is still alive (the false-positive
	// standby case fencing exists for).
	successor, _, err := resumeRouter(durableRouterConfig(stateDir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := runRounds(successor, 1); err != nil {
		t.Fatal(err)
	}

	err = zombie.RunRound()
	if !errors.Is(err, errFencedEpoch) {
		t.Fatalf("zombie round: got %v, want ErrFencedEpoch", err)
	}
	if !zombie.Fenced() {
		t.Fatal("zombie did not latch the lost-leadership flag")
	}
	// A fenced router must stop persisting: the successor's snapshot must
	// survive in the shared store.
	st, err := loadRouterState(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != successor.Epoch() {
		t.Fatalf("durable state epoch = %d, want successor's %d", st.Epoch, successor.Epoch())
	}

	if err := runRounds(successor, 1); err != nil {
		t.Fatalf("successor after zombie attempt: %v", err)
	}
	probe := newClient(1, nil)
	for _, addr := range shards {
		h, err := probe.Health(addr)
		if err != nil {
			t.Fatal(err)
		}
		if h.FencedAccepted != 0 {
			t.Fatalf("shard %s accepted %d stale-epoch mutations", addr, h.FencedAccepted)
		}
		if h.FencedRejected == 0 {
			t.Fatalf("shard %s rejected no stale writes — fence never exercised", addr)
		}
	}
	ref := referenceAudit(t, bundle, testSpec(), ids, 4)
	assertAuditsIdentical(t, ref, readAuditFiles(t, auditDir, ids))
}

// TestConcurrentDuplicateAdmitEvict hammers one shard with concurrent
// duplicate Admit and then Evict calls for the same tenant (run under
// -race): residency must be exactly-once, every duplicate must get the
// idempotent status response rather than an error, and the fleet must end
// empty with the audit stream intact.
func TestConcurrentDuplicateAdmitEvict(t *testing.T) {
	dir := t.TempDir()
	_, addr := startShard(t, testBundle(t), filepath.Join(dir, "ckpt"), filepath.Join(dir, "audit"))
	c := newClient(1, nil)
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatal(err)
	}

	const dup = 8
	var wg sync.WaitGroup
	admitErrs := make([]error, dup)
	admitResp := make([]AdmitResponse, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine has its own client: distinct clients model
			// duplicated requests from a retrying router plus a zombie.
			cc := newClient(1, nil)
			admitResp[i], admitErrs[i] = cc.Admit(addr, "tenant-00", 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < dup; i++ {
		if admitErrs[i] != nil {
			t.Fatalf("duplicate admit %d: %v (idempotent admit must not error)", i, admitErrs[i])
		}
		if admitResp[i].Status.ID != "tenant-00" || admitResp[i].Status.Ticks < 3 {
			t.Fatalf("duplicate admit %d: status %+v, want tenant-00 at >= 3 ticks", i, admitResp[i].Status)
		}
	}
	ts, err := c.Tenants(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Statuses) != 1 {
		t.Fatalf("residency after %d duplicate admits = %d tenants, want exactly 1", dup, len(ts.Statuses))
	}

	evictResp := make([]EvictResponse, dup)
	evictErrs := make([]error, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc := newClient(1, nil)
			evictResp[i], evictErrs[i] = cc.Evict(addr, "tenant-00", false)
		}(i)
	}
	wg.Wait()
	missing := 0
	for i := 0; i < dup; i++ {
		if evictErrs[i] != nil {
			t.Fatalf("duplicate evict %d: %v (idempotent evict must not error)", i, evictErrs[i])
		}
		if evictResp[i].Missing {
			missing++
		}
	}
	if missing != dup-1 {
		t.Fatalf("%d of %d duplicate evicts reported Missing, want exactly %d (one real removal)", missing, dup, dup-1)
	}
	ts, err = c.Tenants(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Statuses) != 0 {
		t.Fatalf("%d tenants resident after eviction, want 0", len(ts.Statuses))
	}
}
