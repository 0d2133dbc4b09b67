package bench

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"graf/internal/chaos"
	"graf/internal/rpc"
)

// RouterFailoverStats are the machine-checked numbers of the router-failover
// experiment, exposed for BenchmarkRouterFailover, which holds
// TakeoverBlackoutMS under a ceiling; the three integrity counters are hard
// zero/nonzero assertions, not trends.
type RouterFailoverStats struct {
	TakeoverBlackoutMS float64
	LostDecisions      float64
	FencedAccepted     float64
	FencedRejected     float64
	ByteIdentical      bool
	MigrationAction    string
}

// RouterFailover runs the crash-safe-router drill (DESIGN.md §3k): a durable
// primary router is killed at the worst possible moment — mid-migration,
// after the drain, before the restore, with seeded request drops on the wire
// throughout — and a standby takes over from the shared checkpoint: epoch
// bump, anti-entropy reconcile, migration roll-forward, then the rest of the
// round sequence. The run must end with every tenant's audit log
// byte-identical to an uninterrupted single-process fleet, zero lost
// decisions, and zero stale-epoch mutations accepted by any shard.
func RouterFailover(s Scale) Result {
	res, _ := RouterFailoverRun(s)
	return res
}

// RouterFailoverRun is RouterFailover plus its raw stats.
func RouterFailoverRun(s Scale) (Result, RouterFailoverStats) {
	res := Result{
		ID:     "router-failover",
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
	st := RouterFailoverStats{
		TakeoverBlackoutMS: v.TakeoverBlackoutMS,
		LostDecisions:      float64(rs.LostDecisions + dead.Stats().LostDecisions),
		FencedAccepted:     float64(accepted),
		FencedRejected:     float64(rejected),
		ByteIdentical:      len(v.Mismatched) == 0,
		MigrationAction:    v.Reconcile.MigrationAction,
	}

	res.AddRow("primary (killed)", di(tenants), "2", di(dead.Stats().Rounds), di(int(dead.Epoch())), f2(primaryWall), "-")
	res.AddRow("standby (takeover)", di(tenants), "2", di(rs.Rounds), di(int(v.Epoch)), f2(v.WallS), f0(st.LostDecisions))

	res.Note("router_takeover_blackout_ms=%.2f (epoch bump + reconcile + migration roll-forward; detection excluded in-process)", st.TakeoverBlackoutMS)
	res.Note("reconcile: %s", v.Reconcile.String())
	res.Note("migration %s -> %s resolved by reconcile as %q (want rolled-forward: drain completed, restore never ran)", victim, standby.Router().Owner(victim), st.MigrationAction)
	res.Note("lost_decisions=%.0f verified_restores=%d snapshot_verified=%d (target 0 lost)", st.LostDecisions, rs.VerifiedRestores, rs.SnapshotVerified)
	res.Note("fenced_writes_accepted=%.0f fenced_writes_rejected=%.0f zombie_fenced=%v (accepted must be 0)", st.FencedAccepted, st.FencedRejected, zombieFenced)
	if !zombieFenced {
		st.FencedAccepted++ // a zombie that mutates freely is an acceptance even if no shard counted one
		res.Note("REGRESSION: zombie primary round did not bounce off the fence (err %v)", zombieErr)
	}
	noteByteIdentity(&res, v, "uninterrupted", "the takeover")
	res.Note("wire chaos: 5%% seeded request drops all run, including during the reconcile sweep")
	return res, st
}
