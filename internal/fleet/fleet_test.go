package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"graf/internal/app"
	"graf/internal/chaos"
	"graf/internal/ckpt"
	"graf/internal/core"
	"graf/internal/forecast"
	"graf/internal/gnn"
	"graf/internal/workload"
)

// testConfig builds a small fleet over a synthetic chain app with a fresh
// (untrained) model — predictions are arbitrary but deterministic, which is
// all the scheduling, containment and determinism tests need.
func testConfig(tenants, workers int) Config {
	a := app.SyntheticChain(4)
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(42)))
	n := len(a.Services)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = 100, 1500
	}
	cfg := Config{
		App: a, Model: m,
		Bounds:  core.Bounds{Lo: lo, Hi: hi},
		SLO:     0.25,
		MinRate: 50, MaxRate: 400,
		Workers: workers, TickS: 5, Seed: 1,
	}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, TenantConfig{
			ID:   fmt.Sprintf("tenant-%02d", i),
			Rate: workload.ConstRate(100 + 10*float64(i%3)),
		})
	}
	return cfg
}

func TestFleetRunBasics(t *testing.T) {
	f, err := New(testConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	f.Run(30)
	st := f.Stats()
	if len(f.Tenants()) != 4 || st.Degraded != 0 {
		t.Fatalf("stats %+v: want 4 healthy tenants", st)
	}
	if st.Rounds != 6 || st.Ticks != 24 {
		t.Fatalf("stats %+v: want 6 rounds, 24 ticks", st)
	}
	for _, tn := range f.Tenants() {
		if tn.Ticks() != 6 {
			t.Fatalf("tenant %s: %d ticks, want 6", tn.ID, tn.Ticks())
		}
		if len(tn.AuditLog()) == 0 {
			t.Fatalf("tenant %s: empty audit log", tn.ID)
		}
	}
	if st.BatchedReqs == 0 {
		t.Fatal("no requests went through the shared inference service")
	}
}

func TestFleetRejectsBadConfigs(t *testing.T) {
	// The defaults are not a bad config: eight workers over a two-tenant
	// fleet.
	if _, err := New(testConfig(2, 0)); err != nil {
		t.Fatalf("default workers over two tenants: %v", err)
	}
	cfg := testConfig(2, 2)
	cfg.Tenants[1].ID = cfg.Tenants[0].ID
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted duplicate tenant IDs")
	}
	cfg = testConfig(1, 1)
	cfg.Tenants = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted empty tenant set")
	}
}

// TestFleetSmoke is the fleet smoke scenario: a small fleet where one
// tenant panics mid-run and another takes a chaos hit. The panicking tenant
// must be quarantined (not crash the process), and every OTHER tenant's
// audit log and SLO accounting must be byte-identical to a control run
// without the panic.
func TestFleetSmoke(t *testing.T) {
	build := func(withPanic bool) *Fleet {
		cfg := testConfig(4, 2)
		// One chaos event in both runs: kill an instance of tenant-01's
		// frontend at t=12s.
		cfg.Tenants[1].Chaos = []chaos.Event{chaos.Kill(12, "svc0", 1)}
		if withPanic {
			cfg.Tenants[2].PanicAt = 17
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	faulted := build(true)
	faulted.Run(40)
	control := build(false)
	control.Run(40)

	st := faulted.Stats()
	if st.Panics != 1 || st.Degraded != 1 {
		t.Fatalf("faulted stats %+v: want exactly 1 contained panic", st)
	}
	victim := faulted.Tenant("tenant-02")
	if !victim.Degraded() {
		t.Fatal("panicking tenant not marked degraded")
	}
	if victim.Ticks() >= control.Tenant("tenant-02").Ticks() {
		t.Fatal("degraded tenant kept ticking after its panic")
	}
	for _, tn := range faulted.Tenants() {
		if tn.ID == "tenant-02" {
			continue
		}
		want := control.Tenant(tn.ID)
		if tn.ViolationSeconds() != want.ViolationSeconds() {
			t.Errorf("tenant %s: violation seconds %.1f differ from control %.1f",
				tn.ID, tn.ViolationSeconds(), want.ViolationSeconds())
		}
		if !bytes.Equal(tn.AuditLog(), want.AuditLog()) {
			t.Errorf("tenant %s: audit log differs from control run", tn.ID)
		}
	}
}

func TestFleetCheckpointNamespaces(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.Run(10)
	if n, err := f.Checkpoint(dir); err != nil {
		t.Fatal(err)
	} else if n != 3 {
		t.Fatalf("want 3 tenants checkpointed, got %d", n)
	}
	for i := 0; i < 3; i++ {
		pat := filepath.Join(dir, fmt.Sprintf("tenant-tenant-%02d-*.ckpt", i))
		m, _ := filepath.Glob(pat)
		if len(m) != 1 {
			t.Fatalf("want exactly one snapshot matching %s, got %v", pat, m)
		}
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 3 {
		t.Fatalf("want 3 files in shared checkpoint dir, got %d", len(ents))
	}
}

// A tenant lists the shared checkpoint directory once while it lives in a
// fleet, not at every checkpoint: what a checkpoint allocates does not grow
// with the number of other tenants' files beside its own.
func TestCheckpointCostIgnoresOtherTenantsFiles(t *testing.T) {
	allocs := func(others int) float64 {
		dir := t.TempDir()
		for i := 0; i < others; i++ {
			name := filepath.Join(dir, fmt.Sprintf("tenant-other-%04d-00000001.ckpt", i))
			if err := os.WriteFile(name, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f, err := New(testConfig(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Stop()
		f.Run(10)
		id := f.Tenants()[0].ID
		return testing.AllocsPerRun(5, func() {
			if err := f.CheckpointTenant(dir, id); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(0), allocs(2000)
	if many > few+few/10 {
		t.Errorf("a checkpoint beside 2000 other tenants' files allocates %.0f objects, %.0f beside none", many, few)
	}
}

// A fleet's first Checkpoint lists the shared directory once for all the
// tenants that have no store there yet, not once per tenant: beside M other
// files it allocates one listing's worth more than in an empty directory.
func TestFirstCheckpointListsTheDirectoryOnce(t *testing.T) {
	const tenants, others = 8, 500
	fill := func() string {
		dir := t.TempDir()
		for i := 0; i < others; i++ {
			name := filepath.Join(dir, fmt.Sprintf("tenant-other-%04d-00000001.ckpt", i))
			if err := os.WriteFile(name, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	first := func(dir string) uint64 {
		f, err := New(testConfig(tenants, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Stop()
		f.Run(10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := f.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	dir := fill()
	listing := testing.AllocsPerRun(1, func() { os.ReadDir(dir) })
	empty, full := first(t.TempDir()), first(dir)
	if extra := float64(full) - float64(empty); extra > 1.5*listing {
		t.Errorf("the first checkpoint of %d tenants beside %d other files allocates %.0f objects more than beside none; one listing is %.0f", tenants, others, extra, listing)
	}
}

// A tenant keeps its checkpoint store only while it lives in one fleet: it
// migrates away, checkpoints there, and comes back, and each fleet carries
// on from the generations the other wrote, pruning to the newest three.
func TestCheckpointGenerationsSurviveMigrationAndBack(t *testing.T) {
	dir := t.TempDir()
	gens := func() (out []string) {
		m, _ := filepath.Glob(filepath.Join(dir, "tenant-tenant-00-*.ckpt"))
		for _, p := range m {
			out = append(out, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "tenant-tenant-00-"), ".ckpt"))
		}
		return out
	}
	checkpoint := func(f *Fleet, times int, want ...string) {
		t.Helper()
		for i := 0; i < times; i++ {
			f.Round()
			if err := f.CheckpointTenant(dir, "tenant-00"); err != nil {
				t.Fatal(err)
			}
		}
		if got := gens(); !reflect.DeepEqual(got, want) {
			t.Fatalf("generations on disk %v, want %v", got, want)
		}
	}
	dyn := func() *Fleet {
		cfg := testConfig(0, 1)
		cfg.Dynamic = true
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		t.Cleanup(f.Stop)
		return f
	}
	tc := testConfig(1, 1).Tenants[0]
	move := func(from, to *Fleet) {
		t.Helper()
		ticks := from.Tenant(tc.ID).Ticks()
		if _, err := from.Evict(tc.ID); err != nil {
			t.Fatal(err)
		}
		if _, rep, err := to.Restore(tc, ticks, dir, 0); err != nil || !rep.SnapshotVerified {
			t.Fatalf("restore at tick %d: %v (report %+v)", ticks, err, rep)
		}
	}
	a, b := dyn(), dyn()
	if _, err := a.Admit(tc); err != nil {
		t.Fatal(err)
	}
	checkpoint(a, 4, "00000002", "00000003", "00000004")
	move(a, b)
	checkpoint(b, 2, "00000004", "00000005", "00000006")
	move(b, a)
	checkpoint(a, 1, "00000005", "00000006", "00000007")
}

// AuditDigest is kept as the stream is written. It must be the length and
// fnv-1a/64 of AuditLog() whenever it is asked: between rounds, on a tenant
// that migrated (evicted here, rebuilt and re-executed there) and on one
// fleet.Restore brought back from the audit file of a fleet that stopped.
func TestAuditDigestMatchesAuditLog(t *testing.T) {
	check := func(when string, tn *Tenant) (int, uint64) {
		t.Helper()
		n, sum := tn.AuditDigest()
		log := tn.AuditLog()
		h := fnv.New64a()
		h.Write(log)
		if n != len(log) || sum != h.Sum64() || n == 0 {
			t.Fatalf("%s: %s AuditDigest = (%d, %#x), AuditLog is %d bytes hashing to %#x", when, tn.ID, n, sum, len(log), h.Sum64())
		}
		return n, sum
	}
	dir := t.TempDir()
	cfg := testConfig(2, 2)
	cfg.AuditDir = dir
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 40; {
		for n := 1 + rng.Intn(6); n > 0; n-- {
			f.Round()
			round++
		}
		for _, tn := range f.Tenants() {
			check(fmt.Sprintf("after round %d", round), tn)
		}
	}
	moved, stayed := cfg.Tenants[0], cfg.Tenants[1]
	ticks := f.Tenant(moved.ID).Ticks()
	wantN, wantSum := check("before migration", f.Tenant(moved.ID))
	if _, err := f.Evict(moved.ID); err != nil {
		t.Fatal(err)
	}

	gcfg := testConfig(0, 1)
	gcfg.Dynamic, gcfg.AuditDir = true, dir
	g, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Stop()
	tn, rep, err := g.Restore(moved, ticks, "", 0)
	if err != nil || !rep.PriorVerified {
		t.Fatalf("migration: %v (report %+v)", err, rep)
	}
	if n, sum := check("after migration", tn); n != wantN || sum != wantSum {
		t.Errorf("migrated tenant's digest (%d, %#x) is not its source's (%d, %#x)", n, sum, wantN, wantSum)
	}
	g.Round()
	check("a round after migration", tn)

	wantN, wantSum = check("before stop", f.Tenant(stayed.ID))
	ticks = f.Tenant(stayed.ID).Ticks()
	f.Stop()
	tn, rep, err = g.Restore(stayed, ticks, "", 0)
	if err != nil || !rep.PriorVerified {
		t.Fatalf("restore: %v (report %+v)", err, rep)
	}
	if n, sum := check("after restore", tn); n != wantN || sum != wantSum {
		t.Errorf("restored tenant's digest (%d, %#x) is not the stopped fleet's (%d, %#x)", n, sum, wantN, wantSum)
	}
}

// Every tenant checkpoint goes through ckpt's warmed gob encoder. Over the
// snapshots a forecasting fleet really takes, the file must have the length
// of one framed from a fresh encoder's stream and decode to the same snapshot.
func TestCheckpointEncodingMatchesFreshEncoder(t *testing.T) {
	cfg := testConfig(3, 1)
	ccfg := core.DefaultControllerConfig(cfg.SLO)
	ccfg.Forecast = forecast.Config{Enabled: true, Model: "hw"}
	cfg.Controller = &ccfg
	cfg.Tenants[2].Rate = workload.StepRate(100, 250, 40)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		f.Run(20)
		for _, tn := range f.Tenants() {
			snap := &ckpt.Snapshot{At: tn.Eng.Now(), Ticks: tn.Ticks(), Controller: tn.Ctl.Snapshot()}
			tn.Cluster.SnapshotInto(&snap.Cluster)
			got, err := ckpt.AppendSnapshot(nil, snap)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(snap); err != nil {
				t.Fatal(err)
			}
			want := ckpt.Frame(ckpt.SnapshotMagic, ckpt.SnapshotVersion, fresh.Bytes())
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d bytes, framed fresh stream %d", round, tn.ID, len(got), len(want))
			}
			a, err := ckpt.DecodeSnapshot(got)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ckpt.DecodeSnapshot(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d %s: snapshot decodes differently from a fresh encoder's", round, tn.ID)
			}
		}
	}
}
