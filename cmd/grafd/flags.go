package main

import (
	"errors"
	"flag"
	"fmt"

	"graf/internal/overload"
	"graf/internal/rpc"
)

// options is the parsed command line: the run flags grafd shares with
// grafrouter (rpc.Flags — artifact, tenants, durable state, per-tenant
// policy) plus what only this binary does. Contradictions are rejected
// before any training, file or simulation work starts.
type options struct {
	*rpc.Flags
	train bool

	obs   string
	hold  int
	smoke bool

	replay string

	ckptEvery     float64
	cold          bool
	crashAt       float64
	assertRestore bool

	modelArchive string
	shards       int

	shardAddr        string
	maxInflight      int
	governorBudgetMS float64

	spec rpc.Spec // the validated policy (local runs)
	set  []string // flags given explicitly, in name order
}

// parseFlags declares grafd's flags on fs, parses args and validates.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{Flags: rpc.RegisterFlags(fs, 1)}
	fs.BoolVar(&o.train, "train", false, "train a quick model in-process instead of loading one")
	fs.StringVar(&o.obs, "obs", "", "serve /metrics (the fleet's and every tenant's registry, merged), /debug/vars and /debug/pprof/* on this address (e.g. 127.0.0.1:9090)")
	fs.IntVar(&o.hold, "hold", 0, "keep serving -obs endpoints this many wall-clock seconds after the run")
	fs.BoolVar(&o.smoke, "smoke", false, "self-scrape -obs /metrics after the run and verify expected families (CI smoke test)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded audit log against the model and verify bit-identical decisions (offline: no simulation)")
	fs.Float64Var(&o.ckptEvery, "ckpt-every", 20, "checkpoint cadence in simulated seconds (with -ckpt)")
	fs.BoolVar(&o.cold, "cold", false, "with -ckpt: ignore existing snapshots and audit logs and start every tenant fresh")
	fs.Float64Var(&o.crashAt, "crash-at", 0, "die abruptly (exit 42) at this simulated time, leaving a torn audit tail for the restart to recover")
	fs.BoolVar(&o.assertRestore, "assert-restore", false, "with -ckpt: exit non-zero unless every tenant was restored from a snapshot and verified against it")
	fs.StringVar(&o.modelArchive, "model-archive", "", "with -lifecycle: persist every model generation under this directory as <tenant>/model-N.graf")
	fs.IntVar(&o.shards, "shards", 0, "number of deterministic tenant groups ticked in parallel (default: one per worker)")
	fs.StringVar(&o.shardAddr, "shard", "", "serve one control-plane shard on this address (host:port; port 0 picks one) and wait for a grafrouter to install the fleet spec")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "with -shard: admission-gate bound on concurrently executing control-plane requests (0 = default)")
	fs.Float64Var(&o.governorBudgetMS, "governor-budget-ms", 0, "with -shard: defend this per-round wall budget with the adaptive brownout governor (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f.Name) })
	return o, o.validate()
}

// only rejects every explicitly given flag outside allowed: a mode states
// once why the other modes' flags do not apply to it.
func (o *options) only(reason string, allowed ...string) error {
	ok := map[string]bool{}
	for _, name := range allowed {
		ok[name] = true
	}
	for _, name := range o.set {
		if !ok[name] {
			return fmt.Errorf("-%s: %s", name, reason)
		}
	}
	return nil
}

// given returns the first of names that was given explicitly, or "".
func (o *options) given(names ...string) string {
	for _, set := range o.set {
		for _, name := range names {
			if set == name {
				return name
			}
		}
	}
	return ""
}

// validate returns the first contradiction it finds, phrased so the fix is
// obvious. Policy (shape, rate, forecast, budget, brownout, ...) is checked
// by rpc.Spec.Validate, the same for every binary.
func (o *options) validate() error {
	if !o.train && o.Model == "" {
		return errors.New("need -model <path> or -train")
	}
	if o.train && o.Model != "" {
		return errors.New("-train and -model are mutually exclusive: train in-process or load a file, not both")
	}
	if o.shardAddr != "" {
		if o.train {
			return errors.New("-shard processes must load the same -model artifact; -train would give every shard a different model")
		}
		if err := o.only("a -shard process takes its policy from the router's spec",
			"shard", "model", "ckpt", "audit-dir", "model-archive", "max-inflight", "governor-budget-ms"); err != nil {
			return err
		}
	} else {
		var err error
		if o.spec, err = o.Spec(); err != nil {
			return err
		}
		if o.replay != "" {
			return o.only("-replay verifies a recorded log offline, without running a simulation",
				"replay", "model", "train", "app", "slo", "seed", "lifecycle")
		}
		if o.modelArchive != "" && !o.spec.Lifecycle {
			return errors.New("-model-archive stores lifecycle model generations; it needs -lifecycle")
		}
		if name := o.given("max-inflight", "governor-budget-ms"); name != "" {
			return fmt.Errorf("-%s configures a control-plane shard; it needs -shard", name)
		}
	}
	if o.maxInflight < 0 {
		return fmt.Errorf("-max-inflight %d must be non-negative", o.maxInflight)
	}
	if !overload.ValidBudgetMS(o.governorBudgetMS) {
		return fmt.Errorf("-governor-budget-ms %v must be finite, non-negative and fit a time.Duration (0 = off)", o.governorBudgetMS)
	}
	if o.shards < 0 || o.shards > o.Tenants {
		return fmt.Errorf("-shards %d must be in [0, %d]: it exceeds the fleet's tenants and shards must not be empty", o.shards, o.Tenants)
	}
	if name := o.given("crash-at", "assert-restore", "cold"); name != "" && o.Ckpt == "" {
		return fmt.Errorf("-%s requires -ckpt: without a checkpoint store there is nothing to restore", name)
	}
	if o.ckptEvery <= 0 {
		return fmt.Errorf("-ckpt-every %v must be positive", o.ckptEvery)
	}
	if o.crashAt > 0 && o.crashAt >= float64(o.spec.DurS) {
		return fmt.Errorf("-crash-at %v lands at or after the end of the run (-dur %d)", o.crashAt, o.spec.DurS)
	}
	if name := o.given("smoke", "hold"); name != "" && o.obs == "" {
		return fmt.Errorf("-%s reads the daemon's own /metrics endpoint; it needs -obs", name)
	}
	return nil
}
