package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"graf"
	"graf/internal/obs"
	"graf/internal/rpc"
)

// runShard turns this grafd process into one member of a multi-process
// fleet: it serves the control-plane protocol on -shard's address and waits
// for a grafrouter to install the fleet spec, admit tenants, and drive
// rounds. The process holds no configuration of its own beyond the model
// artifact and the shared -ckpt/-audit-dir stores — everything that varies
// per run arrives over the wire, so any shard process can own any tenant.
//
// The first stdout line is machine-parsed by grafrouter's spawner:
//
//	shard listening on HOST:PORT
//
// SIGTERM/SIGINT drains the shard (flush audit, checkpoint every tenant,
// stop the fleet) before exiting; a SIGKILL — the chaos case — leaves the
// durable audit logs behind, which is all recovery needs.
func runShard(tr *graf.TrainedModel, o *options) int {
	// The shard's telemetry rides the control-plane mux — /metrics,
	// /debug/vars, and /debug/pprof/* on the same listener the router
	// already talks to, so there is no separate -obs port to configure. The
	// router scrapes this endpoint to federate a fleet-wide metrics view.
	bundle := tr.Bundle()
	bundle.ArchiveDir = o.modelArchive
	s := &rpc.ShardServer{
		Bundle:      bundle,
		CkptDir:     o.Ckpt,
		AuditDir:    o.AuditDir,
		MaxInflight: o.maxInflight,
		// Adaptive brownout lives shard-side (scripted schedules arrive in
		// the router's spec instead): the governor watches this shard's own
		// round wall clock and walks its tenants down the ladder when rounds
		// run past the budget.
		GovernorBudgetMS: o.governorBudgetMS,
		Tel:              obs.New(obs.Options{}),
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	addr, err := s.Serve(o.shardAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard listen: %v\n", err)
		return 1
	}
	fmt.Printf("shard listening on %s\n", addr)

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	sig := <-sigC
	fmt.Printf("%v: draining\n", sig)
	if err := s.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "shard shutdown: %v\n", err)
		return 1
	}
	return 0
}
