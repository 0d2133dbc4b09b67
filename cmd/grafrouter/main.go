// Command grafrouter is the multi-process fleet's control-plane head: it
// spawns (or attaches to) N grafd shard processes and runs one rpc.Drill over
// them — install the fleet spec, place tenants by consistent hashing, drive
// the global round clock — performing whatever the flags schedule on the way:
//
//	grafrouter -model m.graf -spawn 2 -fleet 8 -dur 120 -audit-dir a -ckpt c
//	grafrouter ... -kill-shard 0@12        # SIGKILL shard 0 at round 12
//	grafrouter ... -migrate tenant-03@5:1  # drain → checkpoint → restore on shard 1
//	grafrouter ... -state-dir s -router-addr :7171 -migrate tenant-03@5:other -crash-after-drain
//	grafrouter ... -state-dir s -standby HOST:7171  # probe the primary, take over when it dies
//	grafrouter ... -state-dir s -resume             # warm restart in place
//
// Timings are not flags. The client's timeout, retries, backoff and breaker,
// the heartbeat that declares a shard dead (3 probes, 20 ms apart) and the
// standby's probe of the primary (every 50 ms, 4 misses) are rpc constants,
// and a spawned shard slot is respawned once before its tenants are
// reassigned.
//
// It exits non-zero unless the drill's rpc.Verdict has no error;
// `lost_decisions=0` on the "router done:" line is the machine-checked
// success marker (README "Multi-process fleet", "Crash-safe router").
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"graf"
	"graf/internal/chaos"
	"graf/internal/obs"
	"graf/internal/overload"
	"graf/internal/rpc"
)

// routerOptions is the parsed command line: the run flags shared with grafd
// (rpc.Flags) and the drill they describe.
type routerOptions struct {
	*rpc.Flags
	drill rpc.Drill // flags that are drill fields bind straight into it; validate completes it

	shards, grafdBin, killShard, migrate string
	netDrop, roundBudgetMS               float64
}

// parseFlags declares grafrouter's flags on fs, parses args and validates.
func parseFlags(fs *flag.FlagSet, args []string) (*routerOptions, error) {
	o := &routerOptions{Flags: rpc.RegisterFlags(fs, 8)}
	d := &o.drill
	fs.IntVar(&d.Spawn, "spawn", 0, "spawn this many grafd -shard child processes")
	fs.StringVar(&o.shards, "shards", "", "attach to running shard processes at these comma-separated addresses (instead of -spawn)")
	fs.StringVar(&o.grafdBin, "grafd-bin", "./grafd", "grafd binary to spawn shards from (with -spawn)")
	fs.StringVar(&o.killShard, "kill-shard", "", "chaos: SIGKILL spawned shard <slot> at the start of round <round>, as slot@round (e.g. 0@12)")
	fs.StringVar(&o.migrate, "migrate", "", "planned migration tenant@round:slot (e.g. tenant-03@5:1)")
	fs.Float64Var(&o.netDrop, "net-drop", 0, "chaos: drop each control-plane request with this probability (seeded-deterministic)")
	fs.Float64Var(&o.roundBudgetMS, "round-budget-ms", 0, "end-to-end wall budget per round; the remaining budget propagates to shards as Graf-Deadline-Ms and over-budget ticks are shed, not retried (0 = unbounded)")
	fs.StringVar(&d.TraceFile, "trace", "", "enable control-plane tracing on router and every shard; write the merged Chrome trace-event JSON to this file")
	fs.StringVar(&d.ObsAddr, "obs", "", "serve the router's metrics plus a federated fleet-wide /metrics view (every shard's registry relabeled with shard=addr) on this address")
	fs.StringVar(&d.StateDir, "state-dir", "", "durable router state directory: placement, round clock, migration records, and the fencing epoch are checkpointed here (\"\" = in-memory router, no crash safety)")
	fs.BoolVar(&d.Resume, "resume", false, "warm-restore the router from -state-dir: bump the fencing epoch, reconcile placement against every shard's reported residency, and continue the round sequence")
	fs.StringVar(&d.RouterAddr, "router-addr", "", "serve the router's own /v1/router/healthz on this address (the standby's probe target)")
	fs.StringVar(&d.Standby, "standby", "", "run as a hot standby: probe the primary router's /v1/router/healthz at this host:port every 50 ms and take over (epoch bump + reconcile) after 4 consecutive failures")
	fs.BoolVar(&d.Schedule.CrashAfterDrain, "crash-after-drain", false, "drill: self-SIGKILL at the migrate-after-drain crash site — the migrated tenant is resident nowhere, only the durable migration record knows where it was headed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate()
}

// validate rejects contradictory flag combinations and unparsable schedules
// before any process is spawned, and completes the drill. Policy (shape, rate,
// forecast, budget, brownout, ...) is checked by rpc.Spec.Validate, the same
// for every binary.
func (o *routerOptions) validate() error {
	d := &o.drill
	if o.Model == "" {
		return fmt.Errorf("need -model <path> (every shard process loads the same artifact)")
	}
	var err error
	if d.Spec, err = o.Spec(); err != nil {
		return err
	}
	takeover := d.Resume || d.Standby != ""
	for _, rule := range []struct {
		broken bool
		msg    string
	}{
		{d.Spawn > 0 && o.shards != "", "-spawn starts shard processes and -shards attaches to running ones: pick one"},
		{d.Spawn <= 0 && o.shards == "" && !takeover, "need -spawn N or -shards addr,addr"},
		{takeover && d.StateDir == "", "-resume/-standby restore the router from its durable state: they need -state-dir"},
		{takeover && d.Spawn > 0, "-resume/-standby attach to the previous generation's shards (recorded in -state-dir); they cannot -spawn a new fleet"},
		{d.Resume && d.Standby != "", "-resume takes over immediately and -standby waits for the primary to die: pick one"},
		{d.Schedule.CrashAfterDrain && o.migrate == "", "-crash-after-drain fires inside a migration's drain window: it needs -migrate"},
		{d.Schedule.CrashAfterDrain && d.StateDir == "", "a scripted router crash without -state-dir leaves nothing to resume from"},
		{o.killShard != "" && d.Spawn <= 0, "-kill-shard sends SIGKILL to a spawned shard; it needs -spawn (the router does not kill processes it did not start)"},
		{!(o.netDrop >= 0 && o.netDrop < 1), fmt.Sprintf("-net-drop %v must be in [0,1)", o.netDrop)},
		{!overload.ValidBudgetMS(o.roundBudgetMS), fmt.Sprintf("-round-budget-ms %v must be finite, non-negative and fit a time.Duration (0 disables the round deadline)", o.roundBudgetMS)},
	} {
		if rule.broken {
			return errors.New(rule.msg)
		}
	}
	// A resumed router learns its shard set from the durable state; slot
	// bounds are then checked when the operation runs.
	if o.shards != "" && !takeover {
		d.Shards = strings.Split(o.shards, ",")
	}
	sched, err := rpc.ParseSchedule(o.migrate, o.killShard, max(d.Spawn, len(d.Shards)))
	if err != nil {
		return err
	}
	d.Schedule.Migrations, d.Schedule.Kills = sched.Migrations, sched.Kills
	// Wire faults are keyed by the round clock and a fixed seed: replayable.
	d.Rounds = o.Rounds()
	d.Schedule.Net = chaos.NetScenario{Seed: d.Spec.Seed}
	if o.netDrop > 0 {
		d.Schedule.Net.Events = append(d.Schedule.Net.Events, chaos.Drop(1, d.Rounds, "", o.netDrop))
	}
	// The policy travels in the spec, so every shard — including a respawned
	// one — rebuilds identical tenants.
	d.Spec.Trace = d.TraceFile != ""
	d.Tenants = o.TenantIDs()
	d.RoundBudget = time.Duration(o.roundBudgetMS * float64(time.Millisecond))
	d.FinalCheckpoint, d.AuditDir = o.Ckpt != "", o.AuditDir
	return nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "grafrouter: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(o))
}

// run is flags → Drill → print → exit code.
func run(o *routerOptions) int {
	tr, err := graf.LoadModel(o.Model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "load model: %v\n", err)
		return 1
	}
	// Fail fast if the artifact cannot realize the spec (wrong service
	// count) before any shard process is spawned. The shards load the same
	// file themselves; the router never keeps the model.
	if _, err := o.drill.Spec.FleetConfig(tr.Bundle(), ""); err != nil {
		fmt.Fprintf(os.Stderr, "grafrouter: %v\n", err)
		return 2
	}
	d := o.drill
	d.StartShard = o.spawnShard
	d.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	// The drill's worst-case crash is a real one: SIGKILL ourselves, no
	// rollback, no cleanup. A standby or a -resume restart picks up from
	// the durable state.
	d.Failpoint = func(site string) error {
		fmt.Printf("router: CRASH — self-SIGKILL at %s\n", site)
		return syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	// The router's own telemetry lives in one registry; -obs serves it
	// federated with every shard's. -trace adds a tracer whose round-root
	// spans propagate to the shards as traceparent headers.
	d.Tel = obs.New(obs.Options{})
	d.Obs, d.RPCObs = obs.NewRouterObs(d.Tel), obs.NewRPCObs(d.Tel)
	if d.TraceFile != "" {
		d.Tracer = obs.NewTracer(obs.TracerOptions{Seed: obs.DeriveTraceSeed(d.Spec.Seed, "router"), Proc: "router"})
	}
	v, err := d.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(v)
	if o.AuditDir != "" {
		fmt.Printf("audit logs written to %s\n", o.AuditDir)
	}
	if err := v.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
