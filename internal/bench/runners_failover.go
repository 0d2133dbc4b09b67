package bench

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"graf/internal/chaos"
	"graf/internal/rpc"
)

// routerFailover runs the crash-safe-router drill (DESIGN.md §3k): a durable
// primary router is killed at the worst possible moment — mid-migration,
// after the drain, before the restore, with seeded request drops on the wire
// throughout — and a standby takes over from the shared checkpoint: epoch
// bump, anti-entropy reconcile, migration roll-forward, then the rest of the
// round sequence. Its floors: every tenant's audit log byte-identical to an
// uninterrupted single-process fleet, zero lost decisions, zero stale-epoch
// mutations accepted by any shard, a zombie primary fenced off, the
// migration rolled forward, and a takeover blackout of at most 3 s.
func routerFailover(s Scale) Result {
	res := Result{
		Title:  "Crash-safe router: SIGKILL mid-migration, standby takeover, zombie fencing",
		Header: []string{"mode", "tenants", "shards", "rounds", "epoch", "wall s", "lost decisions"},
	}
	tenants, rounds := 12, 8
	if s.Name != "quick" {
		tenants, rounds = 48, 12
	}
	dir := benchTempDir("failover")
	defer os.RemoveAll(dir)

	// Two shards that outlive the primary: both drills attach to them.
	base := planeDrill(tenants, rounds, dir)
	base.StateDir = filepath.Join(dir, "state")
	start := rpc.LocalShards(*base.Reference, filepath.Join(dir, "ckpt"), base.AuditDir)
	for slot := 0; slot < 2; slot++ {
		sh, err := start(slot)
		if err != nil {
			panic(err)
		}
		defer sh.Shutdown()
		base.Shards = append(base.Shards, sh.Addr())
	}
	// Mild request drops all run, absorbed by retries.
	base.Schedule.Net = chaos.NetScenario{Name: "router-failover", Seed: 13,
		Events: []chaos.NetEvent{chaos.Drop(1, rounds, "", 0.05)}}

	// Primary: a planned migration drains the victim tenant off its owner,
	// then the router dies before the restore — the failpoint seam the
	// process drill wires to a real SIGKILL. The tenant is resident nowhere;
	// only the durable migration record knows where it was headed.
	victim := base.Tenants[0]
	primary := base
	primary.Schedule.Migrations = []rpc.Migration{{Tenant: victim, Round: rounds / 2, Slot: rpc.SlotOther}}
	primary.Schedule.CrashAfterDrain = true
	t0 := time.Now()
	if _, err := primary.Run(); !errors.Is(err, rpc.ErrRouterCrashed) {
		panic("primary survived its scripted kill")
	}
	primaryWall := time.Since(t0).Seconds()
	dead := primary.Router()

	// Standby takeover: restore from the shared store, bump the epoch, run
	// the anti-entropy reconcile (which rolls the migration forward), and
	// continue the round sequence. The blackout is the whole control-plane
	// gap: primary death → standby ready to run rounds. Failure *detection*
	// is excluded here (the in-process drill hands over immediately); the
	// process-level drill in CI adds its heartbeat-miss window on top.
	standby := base
	standby.Resume = true
	v, err := standby.Run()
	if err != nil {
		panic(err)
	}

	// The zombie test: the dead primary's process is still running as far as
	// it knows. Every mutation it attempts must bounce off the epoch fence.
	zombieErr := dead.RunRound()
	zombieFenced := rpc.IsFenced(zombieErr) && dead.Fenced()
	// The shards' fence counters are read again now that the zombie has
	// knocked: the verdict's were summed before it did.
	var accepted, rejected int64
	for _, addr := range base.Shards {
		h, err := standby.Router().Client().Health(addr)
		if err != nil {
			panic(err)
		}
		accepted += h.FencedAccepted
		rejected += h.FencedRejected
	}

	rs := v.Stats
	lost := rs.LostDecisions + dead.Stats().LostDecisions
	action := v.Reconcile.MigrationAction

	res.AddRow("primary (killed)", di(tenants), "2", di(dead.Stats().Rounds), di(int(dead.Epoch())), f2(primaryWall), "-")
	res.AddRow("standby (takeover)", di(tenants), "2", di(rs.Rounds), di(int(v.Epoch)), f2(v.WallS), di(lost))

	res.Note("router_takeover_blackout_ms=%.2f (epoch bump + reconcile + migration roll-forward; detection excluded in-process)", v.TakeoverBlackoutMS)
	res.Note("reconcile: %s", v.Reconcile.String())
	res.Note("migration %s -> %s resolved by reconcile as %q (want rolled-forward: drain completed, restore never ran)", victim, standby.Router().Owner(victim), action)
	res.Note("lost_decisions=%d verified_restores=%d snapshot_verified=%d (target 0 lost)", lost, rs.VerifiedRestores, rs.SnapshotVerified)
	res.Note("fenced_writes_accepted=%d fenced_writes_rejected=%d zombie_fenced=%v (accepted must be 0)", accepted, rejected, zombieFenced)
	if !zombieFenced {
		res.Fail("zombie primary round did not bounce off the fence (err %v)", zombieErr)
	}
	noteByteIdentity(&res, v, "uninterrupted", "the takeover")
	res.Note("wire chaos: 5%% seeded request drops all run, including during the reconcile sweep")
	if lost > 0 {
		res.Fail("%d lost decisions, want 0", lost)
	}
	if accepted > 0 {
		res.Fail("shards accepted %d stale-epoch mutations, want 0", accepted)
	}
	if action != "rolled-forward" {
		res.Fail("mid-flight migration resolved as %q, want rolled-forward", action)
	}
	if v.TakeoverBlackoutMS > 3000 {
		res.Fail("takeover blackout %.0f ms, ceiling 3000 ms", v.TakeoverBlackoutMS)
	}
	return res
}
