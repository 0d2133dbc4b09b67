package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graf/internal/chaos"
	"graf/internal/fleet"
	"graf/internal/obs"
)

// testDrill is a two-shard in-process drill over fresh directories whose
// verdict compares every audit log with the single-process reference.
func testDrill(t *testing.T, tenants, rounds int) *Drill {
	t.Helper()
	dir := t.TempDir()
	bundle := testBundle(t)
	return &Drill{
		RouterConfig: RouterConfig{Spec: testSpec(), Tenants: tenantIDs(tenants)},
		Rounds:       rounds,
		Spawn:        2,
		StartShard:   LocalShards(bundle, filepath.Join(dir, "ckpt"), filepath.Join(dir, "audit")),
		Reference:    &bundle,
		AuditDir:     filepath.Join(dir, "audit"),
	}
}

// What the router-kill CI drill greps out of a real-process run, in-process:
// a planned migration, then the most-loaded shard killed outright, with 10%
// of requests dropped all run. The dead slot is respawned once, no decision
// is lost, and every audit log equals the single-process reference.
func TestDrillMigrateKillDropsByteIdentical(t *testing.T) {
	run := func() *Verdict {
		d := testDrill(t, 6, 10)
		d.Logf = t.Logf
		d.Schedule = Schedule{
			Migrations: []Migration{{Tenant: "tenant-03", Round: 3, Slot: SlotOther}},
			Kills:      []ShardKill{{Slot: SlotMax, Round: 6}},
			Net:        chaos.NetScenario{Seed: 7, Events: []chaos.NetEvent{chaos.Drop(1, 10, "", 0.10)}},
		}
		v, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Err(); err != nil {
			t.Fatalf("verdict: %v\n%s", err, v)
		}
		return v
	}
	v := run()
	if st := v.Stats; st.Respawns != 1 || st.Reassignments != 0 || st.Migrations != 1 || st.Rounds != 10 {
		t.Fatalf("stats %+v: want one migration, one respawn, no reassignment, 10 rounds", st)
	}
	if len(v.Mismatched) != 0 || v.ReferenceS <= 0 {
		t.Fatalf("byte identity: mismatched %v, reference ran %.3fs", v.Mismatched, v.ReferenceS)
	}
	out := v.String()
	for _, want := range []string{"lost_decisions=0", "respawns=1", "migration_blackout_ms=", "  tenant-03 "} {
		if !strings.Contains(out, want) {
			t.Errorf("verdict lacks %q:\n%s", want, out)
		}
	}

	// The schedule is keyed by rounds and slots, not ports and wall time:
	// the same drill draws the same faults and counts the same recoveries.
	again := run().Stats
	v.Stats.RecoveryBlackoutMS, v.Stats.MigrationBlackouts = 0, nil
	again.RecoveryBlackoutMS, again.MigrationBlackouts = 0, nil
	if !reflect.DeepEqual(v.Stats, again) {
		t.Fatalf("the same schedule gave different stats:\n%+v\n%+v", v.Stats, again)
	}
}

// The router-failover CI drill in-process: the primary dies at the
// migrate-after-drain site, a second drill resumes from the durable state,
// rolls the migration forward and finishes the rounds; the dead generation,
// still running as far as it knows, bounces off the fence.
func TestDrillFailoverRollsForwardAndFencesZombie(t *testing.T) {
	base := testDrill(t, 4, 6)
	base.Logf = t.Logf
	base.StateDir = filepath.Join(t.TempDir(), "state")
	base.Schedule.Net = chaos.NetScenario{Seed: 13, Events: []chaos.NetEvent{chaos.Drop(1, 6, "", 0.05)}}
	// Shards that outlive the primary: both drills attach.
	base.Spawn = 0
	for slot := 0; slot < 2; slot++ {
		sh, err := base.StartShard(slot)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Shutdown() })
		base.Shards = append(base.Shards, sh.Addr())
	}

	primary := *base
	primary.Schedule.Migrations = []Migration{{Tenant: "tenant-00", Round: 3, Slot: SlotOther}}
	primary.Schedule.CrashAfterDrain = true
	if v, err := primary.Run(); !errors.Is(err, ErrRouterCrashed) || v != nil {
		t.Fatalf("primary: verdict %v, err %v; want a scheduled crash", v, err)
	}
	dead := primary.Router()
	if dead.Round() != 2 {
		t.Fatalf("primary died at round %d, want after 2", dead.Round())
	}

	standby := *base
	standby.Resume = true
	v, err := standby.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("verdict: %v\n%s", err, v)
	}
	if v.Reconcile == nil || v.Reconcile.MigrationAction != "rolled-forward" {
		t.Fatalf("reconcile %+v, want the migration rolled forward", v.Reconcile)
	}
	if v.Epoch != 2 || v.TakeoverBlackoutMS < 0 || v.Round != 6 {
		t.Fatalf("takeover: epoch %d blackout %.1fms round %d", v.Epoch, v.TakeoverBlackoutMS, v.Round)
	}
	if !strings.Contains(v.String(), "takeover_blackout_ms=") || !strings.Contains(v.String(), "fenced_writes_accepted=0") {
		t.Errorf("verdict lacks the takeover lines:\n%s", v)
	}

	if err := dead.RunRound(); !IsFenced(err) || !dead.Fenced() {
		t.Fatalf("zombie round: %v (fenced=%v), want a fenced rejection", err, dead.Fenced())
	}
	for _, addr := range base.Shards {
		h, err := standby.Router().Client().Health(addr)
		if err != nil {
			t.Fatal(err)
		}
		if h.FencedAccepted != 0 {
			t.Fatalf("shard %s executed %d stale-epoch mutations", addr, h.FencedAccepted)
		}
	}
}

// A resumed drill's shard set is unknown until restore, so a slot past the
// restored ring is caught when the migration runs: the verdict fails on it,
// and the fleet still finishes its rounds.
func TestDrillReportsFailedMigrationAndFinishes(t *testing.T) {
	d := testDrill(t, 2, 3)
	d.Schedule.Migrations = []Migration{{Tenant: "tenant-00", Round: 2, Slot: 7}}
	v, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "migrate: slot 7 out of range (2 shards") {
		t.Fatalf("Err() = %v, want the out-of-range migration", err)
	}
	if v.Round != 3 || v.Stats.Migrations != 0 || len(v.Mismatched) != 0 {
		t.Fatalf("round %d, stats %+v, mismatched %v: the run should finish untouched", v.Round, v.Stats, v.Mismatched)
	}
}

// A traced drill with the observability endpoint on: the verdict carries the
// federation check and a stitched cross-process trace, and exports it.
func TestDrillTracedAndFederated(t *testing.T) {
	d := testDrill(t, 6, 8)
	bundle := *d.Reference
	d.StartShard = func(int) (ShardProc, error) {
		s := &ShardServer{Bundle: bundle, AuditDir: d.AuditDir, Tel: obs.New(obs.Options{})}
		_, err := s.Serve("127.0.0.1:0")
		return s, err
	}
	d.Spec.Trace = true
	d.Tel = obs.New(obs.Options{})
	d.Obs, d.RPCObs = obs.NewRouterObs(d.Tel), obs.NewRPCObs(d.Tel)
	d.Tracer = obs.NewTracer(obs.TracerOptions{Seed: 5, Proc: "router"})
	d.ObsAddr, d.RouterAddr = "127.0.0.1:0", "127.0.0.1:0"
	d.TraceFile = filepath.Join(t.TempDir(), "trace.json")
	v, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("verdict: %v\n%s", err, v)
	}
	for _, want := range []string{"federation OK: 2 shards merged", "trace stitched: trace ", " from 3 processes written to " + d.TraceFile} {
		if !strings.Contains(v.String(), want) {
			t.Errorf("verdict lacks %q:\n%s", want, v)
		}
	}
	if b, err := os.ReadFile(d.TraceFile); err != nil || !strings.Contains(string(b), `"traceEvents"`) {
		t.Errorf("exported trace: %v", err)
	}
}

// wrappedShard serves an in-process shard through a test's own handler.
type wrappedShard struct {
	*ShardServer
	ts *httptest.Server
}

func (w wrappedShard) Addr() string { return w.ts.Listener.Addr().String() }
func (w wrappedShard) Kill()        { w.ts.Close() }
func (w wrappedShard) Shutdown() error {
	err := w.ShardServer.Shutdown()
	w.ts.Close()
	return err
}

// A live shard that cannot report its counters at the end fails the verdict:
// expired_executed=0 and fenced_writes_accepted=0 must not pass without it.
// Slot 0 refuses /healthz once it has served the last round's tick.
func TestDrillFailsOnAShardWithoutCounters(t *testing.T) {
	d := testDrill(t, 2, 3)
	local := d.StartShard
	var refusing atomic.Bool
	var refuser string
	d.StartShard = func(slot int) (ShardProc, error) {
		if slot != 0 {
			return local(slot)
		}
		s := &ShardServer{Bundle: *d.Reference, AuditDir: d.AuditDir}
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" && refusing.Load() {
				http.Error(w, "counters unavailable", http.StatusServiceUnavailable)
				return
			}
			var tick tickRequest
			if r.URL.Path == "/v1/tick" {
				body, _ := io.ReadAll(r.Body)
				json.Unmarshal(body, &tick)
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
			if tick.Round == d.Rounds {
				refusing.Store(true)
			}
		}))
		refuser = ts.Listener.Addr().String()
		return wrappedShard{s, ts}, nil
	}
	v, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !refusing.Load() {
		t.Fatal("slot 0 never served the last round's tick")
	}
	want := fmt.Sprintf("shard %s did not report its counters", refuser)
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Err() = %v, want %q", err, want)
	}
}

// The summary lines are a contract: CI and operators grep them.
func TestVerdictStringAndErr(t *testing.T) {
	v := &Verdict{
		Stats: RouterStats{Rounds: 20, Migrations: 1, Respawns: 1, VerifiedRestores: 3, SnapshotVerified: 1,
			RecoveryBlackoutMS: 12.34, MigrationBlackouts: []float64{7.125}},
		Epoch: 2, Round: 20, Ticks: 40, WallS: 2, TakeoverBlackoutMS: 250.04,
		Shards: ShardCounters{FencedRejected: 2},
		Tenants: []TenantVerdict{
			{TenantStatus{ID: "tenant-00", Ticks: 20, P99: 0.1234, ViolS: 5, AuditLen: 4096, AuditFNV: 0xabc}, "127.0.0.1:7711"},
			{TenantStatus{ID: "tenant-01", Ticks: 18, Brownout: 2}, "127.0.0.1:7712"},
		},
	}
	want := "" +
		"  tenant-00    on 127.0.0.1:7711        ticks  20  p99  123.4 ms  violation   5.0s  audit   4096B fnv 0000000000000abc  ok\n" +
		"  tenant-01    on 127.0.0.1:7712        ticks  18  p99    0.0 ms  violation   0.0s  audit      0B fnv 0000000000000000  BEHIND (18/20 ticks) brownout=heuristic\n" +
		"router done: rounds=20 ticks=40 wall=2.0s ticks_per_s=20.0 lost_decisions=0 migrations=1 respawns=1 reassignments=0 verified_restores=3 snapshot_verified=1 replayed_ticks=0 recovery_blackout_ms=12.3 shed_ticks=0 partial_rounds=0 shard_shed=0 expired_shed=0 expired_executed=0 epoch=2 persist_errors=0 fenced_writes_accepted=0 fenced_writes_rejected=2\n" +
		"takeover_blackout_ms=250.0\n" +
		"migration_blackout_ms=7.12 (migration 0)\n"
	if got := v.String(); got != want {
		t.Errorf("verdict renders\n%s\nwant\n%s", got, want)
	}
	if v.Err() != nil {
		t.Errorf("a verdict nothing failed: %v", v.Err())
	}
	v.failIf(true, "round %d: boom", 3)
	v.failIf(false, "unreached")
	v.passIf(true, "federation OK: %d shards merged", 2)
	if err := v.Err(); err == nil || err.Error() != "round 3: boom" {
		t.Errorf("Err() = %v, want the one failure", err)
	}
	if got := v.String(); got != want+"federation OK: 2 shards merged\n" {
		t.Errorf("a passed check did not add its line:\n%s", got)
	}
}

func TestParseSchedule(t *testing.T) {
	for _, c := range []struct {
		migrate, kill string
		shards        int
		want          Schedule
		err           string
	}{
		{"", "", 2, Schedule{}, ""},
		{"tenant-03@5:1", "", 2, Schedule{Migrations: []Migration{{"tenant-03", 5, 1}}}, ""},
		{"tenant-03@5:other", "max@12", 2, Schedule{
			Migrations: []Migration{{"tenant-03", 5, SlotOther}}, Kills: []ShardKill{{SlotMax, 12}}}, ""},
		{"", "0@3", 1, Schedule{Kills: []ShardKill{{0, 3}}}, ""},
		// A resumed router's shard set is unknown until restore.
		{"t@1:7", "", 0, Schedule{Migrations: []Migration{{"t", 1, 7}}}, ""},
		{"tenant-03", "", 2, Schedule{}, "tenant@round:slot"},
		{"tenant-03@5", "", 2, Schedule{}, "tenant@round:slot"},
		{"@5:1", "", 2, Schedule{}, "tenant@round:slot"},
		{"tenant-03@0:1", "", 2, Schedule{}, "tenant@round:slot"},
		{"tenant-03@five:1", "", 2, Schedule{}, "tenant@round:slot"},
		{"tenant-03@5:2", "", 2, Schedule{}, `slot "2" out of range (0..1, or "other")`},
		{"tenant-03@5:-1", "", 2, Schedule{}, "out of range"},
		{"tenant-03@5:max", "", 2, Schedule{}, "out of range"},
		{"", "0", 2, Schedule{}, "slot@round"},
		{"", "0@0", 2, Schedule{}, "slot@round"},
		{"", "0@-3", 2, Schedule{}, "slot@round"},
		{"", "2@3", 2, Schedule{}, `slot "2" out of range (0..1, or "max")`},
		{"", "other@3", 2, Schedule{}, "out of range"},
	} {
		got, err := ParseSchedule(c.migrate, c.kill, c.shards)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseSchedule(%q, %q, %d): got %v, want an error mentioning %q", c.migrate, c.kill, c.shards, err, c.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSchedule(%q, %q, %d) = %+v, %v; want %+v", c.migrate, c.kill, c.shards, got, err, c.want)
		}
	}
}

// The standby's probe loop against a primary that answers, then goes away:
// it must wait out the misses, then report the last answered probe — three
// missed probes, each a full interval after the one before, earlier than the
// moment it gives up.
func TestWaitForPrimaryFailure(t *testing.T) {
	const every, misses = 5 * time.Millisecond, 3
	answered := make(chan struct{}, 64) // a probe never blocks on the test
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/router/healthz" {
			t.Errorf("standby probed %s", r.URL.Path)
		}
		writeJSON(w, http.StatusOK, routerHealth{OK: true, Epoch: 1})
		select {
		case answered <- struct{}{}:
		default:
		}
	}))
	addr := primary.Listener.Addr().String()

	type result struct {
		lastOK, gaveUp time.Time
		answered       bool
	}
	done := make(chan result, 1)
	started := time.Now()
	go func() {
		lastOK, ok := waitForPrimaryFailure(addr, every, misses)
		done <- result{lastOK, time.Now(), ok}
	}()
	for probes := 0; probes < 2; probes++ {
		select {
		case <-answered:
		case res := <-done:
			t.Fatalf("takeover while the primary answers: %+v", res)
		case <-time.After(10 * time.Second):
			t.Fatal("the standby never probed")
		}
	}
	primary.Close()
	select {
	case res := <-done:
		if !res.answered {
			t.Fatal("the primary answered, the standby says it never did")
		}
		if res.lastOK.Before(started) || res.gaveUp.Sub(res.lastOK) < misses*every {
			t.Fatalf("blackout clock starts at %v: want after %v and %v before giving up at %v",
				res.lastOK, started, misses*every, res.gaveUp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never declared the dead primary dead")
	}
}

// recordingFault remembers every request's coordinates and drops the first
// drops tick attempts to slot 0 in round dropRound.
type recordingFault struct {
	mu               sync.Mutex
	seen             map[string][]int // "op shard round" → attempts, in call order
	dropRound, drops int
}

func (f *recordingFault) Intercept(op, shard string, round, attempt int) (bool, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := fmt.Sprintf("%s %s %d", op, shard, round)
	f.seen[key] = append(f.seen[key], attempt)
	return op == "tick" && shard == "0" && round == f.dropRound && attempt < f.drops, 0
}

// The client must give fault injection a shard's slot, not its address, and
// number a round's attempts across calls: slot 0's first three ticks of round
// 2 drop, which ends the call; the heartbeat finds the shard alive and the
// router re-ticks — on attempt 3, not on a replay of 0..2, which would drop
// again on every recovery attempt.
func TestFaultCoordinatesAreSlotAndRunningAttempt(t *testing.T) {
	bundle := testBundle(t)
	_, addr1 := startShard(t, bundle, "", t.TempDir())
	_, addr2 := startShard(t, bundle, "", t.TempDir())
	fault := &recordingFault{seen: map[string][]int{}, dropRound: 2, drops: 3}
	r, err := NewRouter(RouterConfig{Spec: testSpec(), Tenants: tenantIDs(4), Fault: fault}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := runRounds(r, 3); err != nil {
		t.Fatal(err)
	}
	for key := range fault.seen {
		if strings.Contains(key, "127.0.0.1") {
			t.Errorf("fault injection saw an address: %q", key)
		}
	}
	if got := fault.seen["tick 0 2"]; !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("slot 0's round-2 tick attempts were numbered %v, want 0 1 2 3", got)
	}
	// The re-tick fans out to every live shard; slot 1's is its second call.
	if got := fault.seen["tick 1 2"]; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("slot 1's round-2 tick attempts were numbered %v, want 0 1", got)
	}
	if got := fault.seen["tick 0 3"]; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("round 3 did not restart the count: %v", got)
	}
}

// A tick call whose every attempt is lost fails; the failure investigation's
// first heartbeat finds the shard alive, and the re-tick lands on the next
// attempt. The fault drops exactly the attempts the first call makes — until
// transportAttempts or the retries run out — so only that call is lost:
// nothing is declared dead, no tenant moves, and every audit equals the
// reference.
func TestRouterReticksOnHeartbeatOK(t *testing.T) {
	bundle := testBundle(t)
	audit := t.TempDir()
	_, addr0 := startShard(t, bundle, "", audit)
	_, addr1 := startShard(t, bundle, "", audit)
	spec, ids := testSpec(), tenantIDs(4)
	const rounds = 5
	attempts := min(1+retries, transportAttempts) // what the first call makes
	fault := &recordingFault{seen: map[string][]int{}, dropRound: 3, drops: attempts}
	var mu sync.Mutex
	var log []string
	r, err := NewRouter(RouterConfig{Spec: spec, Tenants: ids, Fault: fault, Logf: func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf(format, args...))
		mu.Unlock()
	}}, []string{addr0, addr1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := runRounds(r, rounds); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	text := strings.Join(log, "\n")
	mu.Unlock()
	ok := fmt.Sprintf("shard 0 (%s): unresponsive but heartbeat ok", addr0)
	if n := strings.Count(text, ok); n != 1 {
		t.Errorf("log has %d %q lines, want 1:\n%s", n, ok, text)
	}
	if strings.Contains(text, "declared dead") {
		t.Errorf("a live shard was declared dead:\n%s", text)
	}
	want := make([]int, attempts+1)
	for i := range want {
		want[i] = i
	}
	if got := fault.seen["tick 0 3"]; !reflect.DeepEqual(got, want) {
		t.Errorf("slot 0's round-3 tick attempts were %v, want %v: the dropped call, then the re-tick", got, want)
	}
	st := r.Stats()
	if st.Rounds != rounds || st.Reassignments != 0 || st.Respawns != 0 || st.LostDecisions != 0 {
		t.Fatalf("stats %+v: want %d rounds, no reassignment, no respawn, no lost decision", st, rounds)
	}
	ref := referenceAudit(t, bundle, spec, ids, rounds)
	for _, ts := range r.TenantStates() {
		if ts.Ticks != rounds {
			t.Errorf("tenant %s: %d/%d ticks", ts.ID, ts.Ticks, rounds)
		}
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil || !bytes.Equal(b, ref[ts.ID]) {
			t.Errorf("tenant %s: audit log differs from the reference (err %v)", ts.ID, err)
		}
	}
}
