package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"graf/internal/app"
	"graf/internal/chaos"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/rpc"
)

// fleetRPC measures the multi-process control plane (DESIGN.md §3h): two
// shard servers behind a router, driven over real HTTP sockets, through a
// full robustness drill — a planned tenant migration mid-run, then a chaos
// shard kill (abrupt server death, no drain) with seeded request drops on
// the wire throughout. Its floors: every tenant's on-disk audit log
// byte-identical to an unkilled single-process fleet of the same seed, a
// verdict with no lost decision, and a migration blackout of at most 5 s —
// the distributed plane may cost wall clock, but never decisions.
func fleetRPC(s Scale) Result {
	res := Result{
		Title:  "Multi-process fleet: routed shards vs single process, with migration + shard kill",
		Header: []string{"mode", "tenants", "shards", "rounds", "wall s", "ticks/s", "lost decisions"},
	}
	tenants, rounds := 16, 10
	if s.Name != "quick" {
		tenants, rounds = 96, 16
	}
	dir := benchTempDir("fleetrpc")
	defer os.RemoveAll(dir)

	// Two in-process shard servers + router over real HTTP sockets. The
	// first tenant migrates to whichever shard does not own it; then the
	// shard owning the most tenants dies abruptly and — no respawns — its
	// orphans are reassigned and verified against their logs.
	killRound := rounds/2 + 1
	d := planeDrill(tenants, rounds, dir)
	d.Spawn, d.StartShard = 2, rpc.LocalShards(*d.Reference, filepath.Join(dir, "ckpt"), d.AuditDir)
	d.RestartBudget = -1
	d.Schedule = rpc.Schedule{
		Migrations: []rpc.Migration{{Tenant: d.Tenants[0], Round: 3, Slot: rpc.SlotOther}},
		Kills:      []rpc.ShardKill{{Slot: rpc.SlotMax, Round: killRound}},
		Net: chaos.NetScenario{Name: "fleet-rpc", Seed: 11,
			Events: []chaos.NetEvent{chaos.Drop(1, rounds, "", 0.10)}},
	}
	v, err := d.Run()
	if err != nil {
		panic(err)
	}

	rs := v.Stats
	ticksPerS := float64(v.Ticks) / v.WallS
	migrationMS := 0.0
	for _, ms := range rs.MigrationBlackouts {
		migrationMS = max(migrationMS, ms)
	}

	// Reference: the same population in one static single-process fleet.
	res.AddRow("single process", di(tenants), "1", di(rounds), f2(v.ReferenceS),
		f1(float64(tenants*rounds)/v.ReferenceS), "-")
	res.AddRow("routed 2 shards", di(tenants), "2", di(rounds), f2(v.WallS),
		f1(ticksPerS), di(rs.LostDecisions))

	res.Note("fleetrpc_ticks_per_s=%.1f (aggregate, %d tenants across 2 shard processes + router over HTTP)", ticksPerS, tenants)
	res.Note("migration_blackout_ms=%.2f (drain -> checkpoint -> rebuild + fast-forward on target, fingerprint-verified)", migrationMS)
	res.Note("rebalance_blackout_ms=%.2f (shard killed at round %d: %d respawns, %d reassignments)", rs.RecoveryBlackoutMS, killRound, rs.Respawns, rs.Reassignments)
	res.Note("lost_decisions=%d verified_restores=%d snapshot_verified=%d replayed_ticks=%d (target 0 lost)", rs.LostDecisions, rs.VerifiedRestores, rs.SnapshotVerified, rs.ReplayedTicks)
	noteByteIdentity(&res, v, "unkilled", "distributed run")
	res.Note("wire chaos: 10%% seeded request drops all run; client retries with jittered backoff absorb them")
	if migrationMS > 5000 {
		res.Fail("migration blackout %.0f ms, ceiling 5000 ms", migrationMS)
	}
	return res
}

// planeDrill is what the control-plane experiments share: an untrained
// chain-4 model (they measure the plane, not the model), constant-rate
// tenants, and a verdict that compares every audit log under dir with the
// single-process reference. The router's timings are rpc constants: they
// are the ones this drill used to set, so seeded drops cost milliseconds of
// backoff and a breaker a drop burst opens is reset by the heartbeat.
func planeDrill(tenants, rounds int, dir string) rpc.Drill {
	bundle := untrainedBundle(4, 42)
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%03d", i)
	}
	return rpc.Drill{
		RouterConfig: rpc.RouterConfig{
			Spec:    rpc.Spec{App: "chain-4", Shape: "const", Rate: 120, Seed: 7, TickS: 5},
			Tenants: ids,
		},
		Rounds:    rounds,
		Reference: &bundle,
		AuditDir:  filepath.Join(dir, "audit"),
	}
}

// noteByteIdentity records the acceptance check — every audit file
// byte-identical to the single-process reference — and fails the run on a
// mismatch or anything else the verdict holds against it.
func noteByteIdentity(res *Result, v *rpc.Verdict, reference, run string) {
	if len(v.Mismatched) > 0 {
		res.Fail("byte_identical=false: %s lost or altered decisions", run)
	} else {
		res.Note("byte_identical=true: every tenant's audit log matches the %s single-process run exactly", reference)
	}
	if err := v.Err(); err != nil {
		res.Fail("%s", strings.ReplaceAll(err.Error(), "\n", "; "))
	}
}

// untrainedBundle is a deterministic, untrained chain-N model artifact.
func untrainedBundle(services int, seed int64) rpc.ModelBundle {
	a := app.SyntheticChain(services)
	lo := make([]float64, services)
	hi := make([]float64, services)
	for i := range lo {
		lo[i], hi[i] = 100, 1500
	}
	return rpc.ModelBundle{
		Model:  gnn.New(gnn.DefaultConfig(services, a.Parents()), rand.New(rand.NewSource(seed))),
		Bounds: core.Bounds{Lo: lo, Hi: hi},
		SLO:    0.25, MinRate: 50, MaxRate: 400,
	}
}

func benchTempDir(prefix string) string {
	dir, err := os.MkdirTemp("", "graf-"+prefix+"-*")
	if err != nil {
		panic(err)
	}
	return dir
}
