// Command grafd runs GRAF controllers live against simulated clusters and
// records their decisions: the closest thing to deploying GRAF on a real
// Kubernetes cluster that an offline reproduction can offer. Every run is a
// fleet of -fleet tenants (default one) on the tenant runtime of
// internal/fleet, built from one per-tenant policy (rpc.Spec): the workload
// source, forecasting, the model lifecycle, the SLO and its error budget and
// a brownout schedule all work for any tenant count, and the same policy
// drives a routed multi-process fleet (grafrouter + grafd -shard).
//
// Usage:
//
//	grafd -model boutique.graf                 # one tenant, constant 150 rps
//	grafd -model boutique.graf -shape diurnal -forecast hw
//	grafd -train -fleet 8 -dur 120             # 8 tenants, one model, shared prediction cache
//	grafd -train -obs 127.0.0.1:9090           # /metrics, /debug/vars, /debug/pprof/*
//	grafd -train -audit-dir a                  # a/tenant-00.jsonl flight-recorder log
//	grafd -model m.graf -replay a/tenant-00.jsonl   # verify it replays bit-identically
//
// Crash recovery:
//
//	grafd -model m.graf -ckpt state -audit-dir a              # checkpoint every 20 s of sim time
//	grafd -model m.graf -ckpt state -audit-dir a -crash-at 100   # die abruptly (exit 42)
//	grafd -model m.graf -ckpt state -audit-dir a -assert-restore
//	                                           # restart: rebuild every tenant, re-execute to its
//	                                           # snapshot, verify state digest and audit prefix
//
// Control-plane member (see cmd/grafrouter):
//
//	grafd -model m.graf -shard 127.0.0.1:0 -ckpt state -audit-dir a
//
// grafd drains on SIGINT/SIGTERM: every audit log is flushed and (with
// -ckpt) every tenant checkpointed before exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"graf"
	"graf/internal/fleet"
)

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "grafd: %v\n", err)
		os.Exit(2)
	}
	tr, err := loadModel(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grafd: %v\n", err)
		os.Exit(1)
	}
	switch {
	case o.replay != "":
		os.Exit(replay(tr, o.replay, o.spec.Lifecycle))
	case o.shardAddr != "":
		os.Exit(runShard(tr, o))
	default:
		os.Exit(runFleet(tr, o))
	}
}

// loadModel returns the run's model artifact: loaded from -model, or trained
// in-process with -train.
func loadModel(o *options) (*graf.TrainedModel, error) {
	if !o.train {
		tr, err := graf.LoadModel(o.Model)
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		return tr, nil
	}
	a, err := graf.AppByName(o.spec.App)
	if err != nil {
		return nil, err
	}
	slo := 250 * time.Millisecond
	if o.spec.SLOMS > 0 {
		slo = time.Duration(o.spec.SLOMS) * time.Millisecond
	}
	fmt.Println("training a quick in-process model (use graftrain for a better one)...")
	return graf.Train(a, graf.TrainOptions{
		SLO:     slo,
		MinRate: 40, MaxRate: 320,
		Samples: 1500, Iterations: 600, Batch: 96, Seed: o.spec.Seed,
	}), nil
}

// replay verifies a recorded audit log against the model: every model-path
// decision must reproduce bit-identically. A tenant's solver evaluates the
// model through the fleet's inference service, which snaps inputs to its
// cache grid, so replay goes through the same service — unless the log is a
// lifecycle tenant's (direct), whose decisions were made on its private
// model generations; only generation 0, the artifact, can be re-run here.
// Returns a process exit code.
func replay(tr *graf.TrainedModel, path string, direct bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		return 1
	}
	defer f.Close()
	log, err := graf.ReadAuditLog(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		return 1
	}
	model := graf.LatencyModel(tr.Model)
	if !direct {
		model = fleet.NewInferenceService(tr.Model).NewPredictor()
	}
	rep := graf.ReplayAuditManaged(map[int]graf.LatencyModel{0: model}, log)
	fmt.Println(rep)
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		return 1
	}
	return 0
}

// selfScrape fetches /metrics from the daemon's own endpoint and verifies
// the families the controller must have produced are present and parseable.
func selfScrape(addr string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE graf_decisions_total counter",
		"# TYPE graf_decision_stage_seconds histogram",
		"graf_decision_stage_seconds_bucket",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("missing %q in /metrics output", want)
		}
	}
	return nil
}
