package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"graf/internal/chaos"
	"graf/internal/fleet"
	"graf/internal/obs"
	"graf/internal/overload"
)

// A drill is one scripted run of a routed fleet: bring a router up (or take
// one over), advance the round clock to the end while a round-keyed schedule
// migrates tenants, kills shards, crashes the router and loses packets, then
// judge what is left. grafrouter, grafbench's fleet-rpc and router-failover
// experiments and the tests all run this one driver.

// Slot values a schedule resolves when the operation runs, so a drill is
// never a no-op whatever the ring happened to decide.
const (
	// SlotOther is any live shard that does not own the tenant.
	SlotOther = -1
	// SlotMax is the live shard owning the most tenants.
	SlotMax = -2
)

// Migration moves Tenant onto shard Slot (or SlotOther) at the start of
// Round.
type Migration struct {
	Tenant string
	Round  int
	Slot   int
}

// ShardKill kills the shard in Slot (or SlotMax) at the start of Round —
// abruptly: no drain, no flush. Recovery works from the durable audit logs.
type ShardKill struct {
	Slot  int
	Round int
}

// Schedule is everything a drill does to the fleet besides advancing it,
// keyed by the router's round clock — so it is independent of how fast
// rounds run, and replayable.
type Schedule struct {
	Migrations []Migration
	Kills      []ShardKill
	// CrashAfterDrain kills the router inside a scheduled migration, at the
	// migrate-after-drain site: the tenant is resident nowhere and only the
	// durable migration record knows where it was headed.
	CrashAfterDrain bool
	// Net is the wire-fault schedule (drops, delays, partitions).
	Net chaos.NetScenario
}

// ParseSchedule parses the command-line form of a schedule's planned
// operations. migrate is tenant@round:slot, slot a shard index or "other";
// kill is slot@round, slot a shard index or "max"; either may be empty.
// shards bounds the indices; 0 means the shard set is not known until the
// ring is restored, and the bound is checked when the operation runs.
func ParseSchedule(migrate, kill string, shards int) (Schedule, error) {
	var s Schedule
	if migrate != "" {
		tenant, tail, _ := strings.Cut(migrate, "@")
		roundS, slotS, ok := strings.Cut(tail, ":")
		round, err := strconv.Atoi(roundS)
		if tenant == "" || !ok || err != nil || round <= 0 {
			return Schedule{}, fmt.Errorf("-migrate %q: want tenant@round:slot (e.g. tenant-03@5:1, or :other for any non-owning shard)", migrate)
		}
		slot, err := parseSlot(slotS, "other", SlotOther, shards)
		if err != nil {
			return Schedule{}, fmt.Errorf("-migrate %v", err)
		}
		s.Migrations = []Migration{{Tenant: tenant, Round: round, Slot: slot}}
	}
	if kill != "" {
		slotS, roundS, ok := strings.Cut(kill, "@")
		round, err := strconv.Atoi(roundS)
		if !ok || err != nil || round <= 0 {
			return Schedule{}, fmt.Errorf("-kill-shard %q: want slot@round, round a positive integer (e.g. 0@12)", kill)
		}
		slot, err := parseSlot(slotS, "max", SlotMax, shards)
		if err != nil {
			return Schedule{}, fmt.Errorf("-kill-shard %v", err)
		}
		s.Kills = []ShardKill{{Slot: slot, Round: round}}
	}
	return s, nil
}

// parseSlot parses a shard index below shards (0 = unbounded), or the one
// symbolic name the clause allows.
func parseSlot(s, symbol string, symbolic, shards int) (int, error) {
	if s == symbol {
		return symbolic, nil
	}
	slot, err := strconv.Atoi(s)
	if err != nil || slot < 0 || (shards > 0 && slot >= shards) {
		return 0, fmt.Errorf("slot %q out of range (0..%d, or %q)", s, shards-1, symbol)
	}
	return slot, nil
}

// ErrRouterCrashed is what Run returns when the schedule crashed a router
// that has no Failpoint to die by: the drill's router is dead mid-run, its
// durable state is what a resuming drill starts from.
var ErrRouterCrashed = errors.New("rpc: drill: router crashed on schedule")

// ShardProc is a shard process a drill started and may therefore kill: a
// spawned grafd -shard child, or an in-process *ShardServer.
type ShardProc interface {
	Addr() string
	PID() int
	// Kill is SIGKILL: no drain, no flush. Shutdown drains, flushes and
	// checkpoints; the drill calls one or the other, once.
	Kill()
	Shutdown() error
}

// LocalShards starts in-process shard servers over shared checkpoint and
// audit directories — a Drill.StartShard that needs no grafd binary.
func LocalShards(bundle ModelBundle, ckptDir, auditDir string) func(slot int) (ShardProc, error) {
	return func(int) (ShardProc, error) {
		s := &ShardServer{Bundle: bundle, CkptDir: ckptDir, AuditDir: auditDir}
		_, err := s.Serve("127.0.0.1:0")
		return s, err
	}
}

// Drill is a router configuration plus how far to run it and what to do to
// the fleet on the way. Of the embedded RouterConfig, Failpoint is how this
// router dies when the schedule crashes it — a process drill installs a
// self-SIGKILL; with none, Run returns ErrRouterCrashed — Fault is replaced
// by a non-empty Schedule.Net, Respawn by StartShard when the drill spawns
// its shards, and Logf receives whole output lines: the router's progress
// lines arrive prefixed "router: ".
type Drill struct {
	RouterConfig

	// Rounds is the round the clock runs to; a resumed drill continues from
	// the restored round.
	Rounds   int
	Schedule Schedule
	// Shards are the addresses of running shards to attach to, by slot.
	// Spawn, when positive, starts that many with StartShard instead, and the
	// drill owns those processes: it kills them on schedule, respawns a dead
	// one while RestartBudget lasts, and shuts them all down when Run returns
	// — so a drill whose fleet a later one resumes attaches, it does not
	// spawn.
	Shards     []string
	Spawn      int
	StartShard func(slot int) (ShardProc, error)
	// Resume takes the fleet over from StateDir — epoch bump, reconcile —
	// instead of bootstrapping it; the shard set is in the durable state.
	// Standby, when set, is a primary router's healthz address: Run first
	// waits for standbyMisses consecutive failed probes, standbyEvery apart,
	// then resumes.
	Resume  bool
	Standby string
	// FinalCheckpoint checkpoints every shard after the last round.
	FinalCheckpoint bool
	// RouterAddr, when set, serves /v1/router/healthz for a standby to probe.
	// ObsAddr, when set, serves Tel's registry federated with every shard's
	// /metrics, and the verdict checks that every live shard was scraped.
	RouterAddr, ObsAddr string
	Tel                 *obs.Telemetry
	// TraceFile, when set on a drill with a Tracer, receives every process's
	// spans merged into one Chrome trace-event JSON.
	TraceFile string
	// Reference, when set, is the model every shard loaded: the verdict runs
	// the same tenants in one process (ReferenceAudit) and compares each
	// tenant's file under AuditDir with it, byte for byte.
	Reference *ModelBundle
	AuditDir  string

	router *Router
	procs  []ShardProc // spawned shards by slot; touched only by Run's goroutine
}

// Router returns the router Run built or resumed (nil before Run). It
// outlives Run: the generation a scheduled crash killed is the zombie a
// failover drill then pokes.
func (d *Drill) Router() *Router { return d.router }

// takeover reports a drill that resumes a fleet instead of bootstrapping one.
func (d *Drill) takeover() bool { return d.Resume || d.Standby != "" }

func (d *Drill) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Run executes the drill. The error is a failure to start, or the scheduled
// router crash; everything that went wrong after the router was up is in the
// verdict.
func (d *Drill) Run() (*Verdict, error) {
	cfg := d.RouterConfig
	cfg.Logf = func(format string, args ...any) { d.logf("router: "+format, args...) }
	if len(d.Schedule.Net.Events) > 0 {
		cfg.Fault = chaos.NewNetInjector(d.Schedule.Net)
	}
	var crashed error
	cfg.Failpoint = func(site string) error {
		if site != "migrate-after-drain" || !d.Schedule.CrashAfterDrain {
			return nil
		}
		crashed = fmt.Errorf("%w at %s", ErrRouterCrashed, site)
		if d.Failpoint != nil {
			crashed = d.Failpoint(site)
		}
		return crashed
	}
	defer d.shutdownShards()
	v := &Verdict{TakeoverBlackoutMS: -1}
	r, err := d.open(cfg, v)
	if err != nil {
		return nil, err
	}
	d.router = r
	d.logf("router: %d tenants, %d shards, shape=%s, %d rounds (%ds horizon)",
		len(d.Tenants), len(r.Shards()), d.Spec.Shape, d.Rounds, d.Spec.DurS)
	stop, err := d.serve(r)
	if err != nil {
		return nil, err
	}
	defer stop()
	if !d.takeover() {
		if err := r.Bootstrap(); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	rung := 0
	for round := r.Round() + 1; round <= d.Rounds; round++ {
		d.kill(r, round)
		v.failures = append(v.failures, d.migrate(r, round)...)
		if crashed != nil {
			return nil, crashed
		}
		if err := r.RunRound(); err != nil {
			v.failures = append(v.failures, fmt.Errorf("round %d: %w", round, err))
			break
		}
		rung = d.announceBrownout(r, round, rung)
	}
	v.WallS = time.Since(start).Seconds()
	if d.RoundBudget > 0 {
		// A budget may have shed the last rounds' ticks, and no later round
		// catches those shards up: settle, or they are judged BEHIND.
		err := r.Settle()
		v.failIf(err != nil, "%v", err)
	}

	if d.FinalCheckpoint {
		if n, err := r.CheckpointAll(); err != nil {
			d.logf("router: final checkpoint: %v", err)
		} else {
			d.logf("router: checkpointed %d tenant namespace(s)", n)
		}
	}
	d.judge(r, v)
	return v, nil
}

// open builds the drill's router: a fresh one over the attached or spawned
// shards, or the next generation of the one whose state is in StateDir.
func (d *Drill) open(cfg RouterConfig, v *Verdict) (*Router, error) {
	if !d.takeover() {
		addrs := d.Shards
		if d.Spawn > 0 {
			addrs = nil
			cfg.Respawn = func(slot int) (string, error) { return d.startShard(slot, "respawned") }
		}
		for slot := 0; slot < d.Spawn; slot++ {
			addr, err := d.startShard(slot, "up")
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, addr)
		}
		return NewRouter(cfg, addrs)
	}
	deadAt := time.Now()
	if d.Standby != "" {
		d.logf("standby: probing primary %s every %s (%d misses → takeover)", d.Standby, standbyEvery, standbyMisses)
		answered := false
		if deadAt, answered = waitForPrimaryFailure(d.Standby, standbyEvery, standbyMisses); !answered {
			d.logf("standby: primary never answered within the grace window — claiming leadership")
		}
		d.logf("standby: primary declared dead — taking over")
	}
	r, rep, err := resumeRouter(cfg)
	if err != nil {
		return nil, err
	}
	v.Reconcile = rep
	v.TakeoverBlackoutMS = float64(time.Since(deadAt).Nanoseconds()) / 1e6
	d.logf("router: resumed epoch=%d at round %d/%d, takeover_blackout_ms=%.1f",
		r.Epoch(), r.Round(), d.Rounds, v.TakeoverBlackoutMS)
	return r, nil
}

// startShard starts the process for a slot and records it.
func (d *Drill) startShard(slot int, verb string) (string, error) {
	p, err := d.StartShard(slot)
	if err != nil {
		return "", err
	}
	for len(d.procs) <= slot {
		d.procs = append(d.procs, nil)
	}
	d.procs[slot] = p
	d.logf("router: shard %d %s at %s (pid %d)", slot, verb, p.Addr(), p.PID())
	return p.Addr(), nil
}

// shutdownShards drains the shards the drill spawned: each flushes and
// checkpoints on the way out.
func (d *Drill) shutdownShards() {
	for _, p := range d.procs {
		if p != nil {
			p.Shutdown()
		}
	}
}

// serve starts the router's own listeners — /v1/router/healthz on RouterAddr,
// Tel's debug surface and the federated /metrics on ObsAddr — and returns
// what closes them.
func (d *Drill) serve(r *Router) (stop func(), err error) {
	var servers []*http.Server
	stop = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	if d.RouterAddr != "" {
		ln, err := net.Listen("tcp", d.RouterAddr)
		if err != nil {
			return nil, fmt.Errorf("router-addr listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/router/healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, routerHealth{OK: true, PID: os.Getpid(), Epoch: r.Epoch(), Round: r.Round(), Fenced: r.Fenced()})
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		servers = append(servers, srv)
		d.logf("router: healthz on %s", ln.Addr())
	}
	if d.ObsAddr != "" {
		srv, err := d.Tel.Serve(d.ObsAddr, func() string { return federate(d.Tel, r.scrapeShards()) })
		if err != nil {
			stop()
			return nil, fmt.Errorf("obs listen: %w", err)
		}
		servers = append(servers, srv)
		d.logf("router: obs listening on %s (federated /metrics)", srv.Addr)
	}
	return stop, nil
}

// kill performs the shard kills scheduled for this round, on the shards the
// drill spawned.
func (d *Drill) kill(r *Router, round int) {
	for _, k := range d.Schedule.Kills {
		if k.Round != round {
			continue
		}
		slot := k.Slot
		if slot == SlotMax {
			owned := map[string]int{}
			for _, ts := range r.TenantStates() {
				owned[r.Owner(ts.ID)]++
			}
			shards := r.Shards()
			slot = -1
			for _, si := range shards {
				if si.Alive && (slot < 0 || owned[si.Addr] > owned[shards[slot].Addr]) {
					slot = si.Slot
				}
			}
		}
		if slot < 0 || slot >= len(d.procs) {
			continue
		}
		if p := d.procs[slot]; p != nil {
			d.logf("router: CHAOS — SIGKILL shard %d (pid %d) at round %d", slot, p.PID(), round)
			p.Kill()
			d.procs[slot] = nil // dead: nothing left to shut down
		}
	}
}

// migrate performs the migrations scheduled for this round and returns the
// ones that failed.
func (d *Drill) migrate(r *Router, round int) (errs []error) {
	for _, m := range d.Schedule.Migrations {
		if m.Round != round {
			continue
		}
		shards := r.Shards()
		slot := m.Slot
		if slot == SlotOther {
			owner := r.Owner(m.Tenant)
			for _, si := range shards {
				if si.Alive && si.Addr != owner {
					slot = si.Slot
					break
				}
			}
		}
		switch {
		case slot >= len(shards):
			errs = append(errs, fmt.Errorf("migrate: slot %d out of range (%d shards in the restored ring)", slot, len(shards)))
		case slot < 0:
			errs = append(errs, fmt.Errorf("migrate: no live shard other than %s for %s", r.Owner(m.Tenant), m.Tenant))
		default:
			took, err := r.Migrate(m.Tenant, shards[slot].Addr)
			if err != nil {
				errs = append(errs, fmt.Errorf("migrate: %w", err))
				continue
			}
			d.logf("router: migrated %s to shard %d in %.1fms", m.Tenant, slot, float64(took.Nanoseconds())/1e6)
		}
	}
	return errs
}

// announceBrownout logs when any tenant enters the brownout ladder and when
// the whole fleet has recovered, so an operator tailing the log sees
// pressure without scraping metrics. It returns the fleet's deepest rung.
func (d *Drill) announceBrownout(r *Router, round, prev int) int {
	rung := 0
	for _, ts := range r.TenantStates() {
		if ts.Brownout > rung {
			rung = ts.Brownout
		}
	}
	switch {
	case rung > 0 && prev == 0:
		d.logf("router: brownout enter step=%s round=%d", overload.Step(rung), round)
	case rung == 0 && prev > 0:
		d.logf("router: brownout exit round=%d", round)
	case rung != prev:
		d.logf("router: brownout step=%s round=%d", overload.Step(rung), round)
	}
	return rung
}

// judge fills the verdict: the router's tables, every live shard's health
// counters, the contract they must satisfy and — where the drill asks — the
// federated metrics view, the merged trace and the single-process reference.
func (d *Drill) judge(r *Router, v *Verdict) {
	v.Stats, v.Epoch, v.Round = r.Stats(), r.Epoch(), r.Round()
	var ids []string
	behind := 0
	for _, ts := range r.TenantStates() {
		t := TenantVerdict{TenantStatus: ts, Owner: r.Owner(ts.ID)}
		v.Tenants = append(v.Tenants, t)
		v.Ticks += ts.Ticks
		ids = append(ids, ts.ID)
		if v.behind(t) {
			behind++
		}
	}
	alive := r.live()
	for _, addr := range alive {
		if h, err := r.client.Health(addr); err == nil {
			v.Shards.Shed += h.Shed
			v.Shards.ExpiredShed += h.ExpiredShed
			v.Shards.ExpiredExecuted += h.ExpiredExecuted
			v.Shards.FencedAccepted += h.FencedAccepted
			v.Shards.FencedRejected += h.FencedRejected
		}
	}
	v.failIf(v.Stats.LostDecisions > 0, "%d restores failed audit verification: lost decisions", v.Stats.LostDecisions)
	v.failIf(behind > 0, "%d tenants finished behind the round clock", behind)
	v.failIf(v.Shards.ExpiredExecuted > 0, "overload: %d requests EXECUTED past their propagated deadline", v.Shards.ExpiredExecuted)
	v.failIf(v.Shards.FencedAccepted > 0, "fencing: %d stale-epoch mutations EXECUTED on a shard", v.Shards.FencedAccepted)
	v.failIf(r.Fenced(), "fencing: this router generation was FENCED (a newer epoch owns the fleet)")

	// Federation must be checked while the shards still serve /metrics.
	if d.ObsAddr != "" {
		pages := r.scrapeShards()
		v.failIf(len(pages) != len(alive) || len(alive) == 0, "federation INCOMPLETE: scraped %d of %d live shards", len(pages), len(alive))
		v.passIf(len(pages) == len(alive) && len(alive) > 0, "federation OK: %d shards merged, %d metric families",
			len(pages), strings.Count(federate(d.Tel, pages), "# TYPE "))
	}
	if d.Tracer != nil {
		spans, procs, errs := r.collectSpans()
		v.failures = append(v.failures, errs...)
		tid, n, np, ok := obs.StitchedTrace(spans)
		v.failIf(!ok, "trace NOT stitched: no single trace covers router round → shard tick → tenant stages → inference")
		v.passIf(ok, "trace stitched: trace %016x crosses %d processes, %d spans (router/round → shard/tick → tenant/tick → decision → inference/batch)", tid, np, n)
		if d.TraceFile != "" {
			var buf bytes.Buffer
			err := obs.ChromeTrace(&buf, spans)
			if err == nil {
				err = os.WriteFile(d.TraceFile, buf.Bytes(), 0o644)
			}
			v.failIf(err != nil, "trace export: %v", err)
			v.passIf(err == nil, "router: %d spans from %d processes written to %s", len(spans), procs, d.TraceFile)
		}
	}
	if d.Reference != nil {
		t0 := time.Now()
		want, err := ReferenceAudit(*d.Reference, d.Spec, ids, d.Rounds)
		v.failIf(err != nil, "reference run: %v", err)
		v.ReferenceS = time.Since(t0).Seconds()
		for _, id := range ids {
			got, err := os.ReadFile(filepath.Join(d.AuditDir, fleet.SanitizeID(id)+".jsonl"))
			if err != nil || !bytes.Equal(got, want[id]) {
				v.Mismatched = append(v.Mismatched, id)
			}
		}
		v.failIf(len(v.Mismatched) > 0, "audit logs differ from the single-process reference: %v", v.Mismatched)
	}
}

// ReferenceAudit runs the same tenants under the same spec in one static
// single-process fleet and returns each tenant's audit bytes — the ground
// truth every routed run must reproduce byte for byte, whatever was
// migrated, killed, dropped or taken over on the way.
func ReferenceAudit(bundle ModelBundle, spec Spec, ids []string, rounds int) (map[string][]byte, error) {
	cfg, err := spec.FleetConfig(bundle, "")
	if err != nil {
		return nil, err
	}
	cfg.Dynamic = false
	cfg.Workers = 1
	for _, id := range ids {
		cfg.Tenants = append(cfg.Tenants, spec.TenantConfig(id))
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	f.Run(float64(rounds) * cfg.TickS)
	out := map[string][]byte{}
	for _, t := range f.Tenants() {
		out[t.ID] = t.AuditLog()
	}
	return out, nil
}

// TenantVerdict is one tenant at the end of a drill: the last status its
// shard acknowledged, and where it lives.
type TenantVerdict struct {
	TenantStatus
	Owner string
}

// ShardCounters are the live shards' health counters, summed.
type ShardCounters struct {
	Shed, ExpiredShed, ExpiredExecuted int64
	FencedAccepted, FencedRejected     int64
}

// Verdict is what a drill left behind. String renders the summary grafrouter
// prints (`lost_decisions=0` on the "router done:" line is the
// machine-checked success marker). Err is nil exactly when the run kept the
// plane's contract: every round and migration succeeded, no decision lost, no
// tenant behind the round clock, nothing executed past its deadline, no
// stale-epoch mutation accepted, the router not fenced, and — where the
// drill asked — every shard scraped, the trace stitched and exported, every
// audit log equal to the reference.
type Verdict struct {
	Stats   RouterStats
	Epoch   uint64
	Round   int // the round clock the router reached
	Tenants []TenantVerdict
	Ticks   int     // tenant ticks acknowledged, fleet-wide
	WallS   float64 // the round loop's wall time
	Shards  ShardCounters
	// TakeoverBlackoutMS (resumed drills; -1 otherwise) runs from the
	// primary's last answered probe — or the start of the resume — to the
	// reconciled router; Reconcile is what the reconcile found.
	TakeoverBlackoutMS float64
	Reconcile          *ReconcileReport
	// Mismatched names the tenants whose audit file differs from the
	// single-process reference (drills with Reference), which took
	// ReferenceS to run.
	Mismatched []string
	ReferenceS float64

	passed   []string // one summary line per optional check that passed
	failures []error
}

// behind reports a live tenant that did not reach the round clock.
func (v *Verdict) behind(t TenantVerdict) bool { return !t.Degraded && t.Ticks != v.Round }

func (v *Verdict) failIf(bad bool, format string, args ...any) {
	if bad {
		v.failures = append(v.failures, fmt.Errorf(format, args...))
	}
}

func (v *Verdict) passIf(ok bool, format string, args ...any) {
	if ok {
		v.passed = append(v.passed, fmt.Sprintf(format, args...))
	}
}

// Err joins everything the run broke; nil is a pass.
func (v *Verdict) Err() error { return errors.Join(v.failures...) }

// String renders the per-tenant lines, the "router done:" summary and one
// line per blackout and passed check.
func (v *Verdict) String() string {
	var b strings.Builder
	for _, t := range v.Tenants {
		status := "ok"
		switch {
		case t.Degraded:
			status = "DEGRADED (contained)"
		case v.behind(t):
			status = fmt.Sprintf("BEHIND (%d/%d ticks)", t.Ticks, v.Round)
		}
		if t.Brownout > 0 {
			status += fmt.Sprintf(" brownout=%s", overload.Step(t.Brownout))
		}
		fmt.Fprintf(&b, "  %-12s on %-21s ticks %3d  p99 %6.1f ms  violation %5.1fs  audit %6dB fnv %016x  %s\n",
			t.ID, t.Owner, t.Ticks, t.P99*1000, t.ViolS, t.AuditLen, t.AuditFNV, status)
	}
	st := v.Stats
	fmt.Fprintf(&b, "router done: rounds=%d ticks=%d wall=%.1fs ticks_per_s=%.1f lost_decisions=%d migrations=%d respawns=%d reassignments=%d verified_restores=%d snapshot_verified=%d replayed_ticks=%d recovery_blackout_ms=%.1f shed_ticks=%d partial_rounds=%d shard_shed=%d expired_shed=%d expired_executed=%d epoch=%d persist_errors=%d fenced_writes_accepted=%d fenced_writes_rejected=%d\n",
		st.Rounds, v.Ticks, v.WallS, float64(v.Ticks)/v.WallS,
		st.LostDecisions, st.Migrations, st.Respawns, st.Reassignments,
		st.VerifiedRestores, st.SnapshotVerified, st.ReplayedTicks, st.RecoveryBlackoutMS,
		st.ShedTicks, st.PartialRounds, v.Shards.Shed, v.Shards.ExpiredShed, v.Shards.ExpiredExecuted,
		v.Epoch, st.PersistErrors, v.Shards.FencedAccepted, v.Shards.FencedRejected)
	if v.TakeoverBlackoutMS >= 0 {
		fmt.Fprintf(&b, "takeover_blackout_ms=%.1f\n", v.TakeoverBlackoutMS)
	}
	for i, ms := range st.MigrationBlackouts {
		fmt.Fprintf(&b, "migration_blackout_ms=%.2f (migration %d)\n", ms, i)
	}
	for _, line := range v.passed {
		b.WriteString(line + "\n")
	}
	return b.String()
}

// A standby probes the primary's /v1/router/healthz every standbyEvery and
// takes over after standbyMisses consecutive failures: a 200 ms detection
// window, the cadence CI's failover drill runs. The primary serves
// that endpoint outside its round loop, so a slow round does not miss a
// probe, and fencing, not the probe, is what keeps a merely paused primary
// from acting after the takeover (DESIGN.md §3k). primaryGrace is how long
// a standby waits for a primary that has never answered before concluding
// it was dead from the start.
const (
	standbyEvery  = 50 * time.Millisecond
	standbyMisses = 4
	primaryGrace  = 60 * time.Second
)

// waitForPrimaryFailure blocks until the primary's /v1/router/healthz has
// failed `misses` consecutive probes, `every` apart, after having answered
// at least once, and returns the instant of the last successful probe —
// where the takeover blackout clock starts. If the primary never answers
// within the grace window (it was already dead when the standby started),
// it returns the current time and answered=false: leadership is claimed
// immediately.
func waitForPrimaryFailure(primary string, every time.Duration, misses int) (lastOK time.Time, answered bool) {
	cl := &http.Client{Timeout: max(2*every, 100*time.Millisecond)}
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

// scrapeShards fetches every live shard's Prometheus exposition from its
// control-plane /metrics endpoint. Unreachable shards are skipped — the
// caller compares the haul against the live count.
func (r *Router) scrapeShards() []obs.Exposition {
	cl := &http.Client{Timeout: 2 * time.Second}
	var out []obs.Exposition
	for _, addr := range r.live() {
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
	for _, addr := range r.live() {
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
