package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"graf"
	"graf/internal/fleet"
	"graf/internal/obs"
)

// runFleet drives the local fleet: -fleet N tenants built from the one spec
// the flags describe — the same spec that drives the multi-process control
// plane (grafrouter + grafd -shard), which is what makes this run the
// byte-exact reference for a distributed one. Tenants are sharded across the
// worker pool and solve against one shared model behind a prediction cache.
//
// With -ckpt every tenant boots through fleet.Restore, the sequence a shard
// runs when it admits a migrated tenant: rebuild from the spec, re-execute to
// the latest snapshot's tick, verify the state digest against it, replay on
// until the previous process's audit log (torn tail repaired) is covered and
// verify it is a byte-exact prefix. SIGINT/SIGTERM between rounds drains the
// fleet: every audit log is flushed and every tenant checkpointed before
// exit. Returns a process exit code: non-zero when any tenant had to be
// quarantined, 42 for the scripted -crash-at death.
func runFleet(tr *graf.TrainedModel, o *options) int {
	bundle := tr.Bundle()
	bundle.ArchiveDir = o.modelArchive
	cfg, err := o.spec.FleetConfig(bundle, o.AuditDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.Shards = o.shards
	var tel *obs.Telemetry
	if o.obs != "" {
		tel = obs.New(obs.Options{})
		cfg.Obs = tel
	}
	f, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rounds := o.Rounds()
	if code := boot(f, o, rounds); code != 0 {
		return code
	}
	fmt.Printf("fleet: %d tenants, %d shards, shape=%s, %ds horizon (%d rounds)\n",
		o.Tenants, f.Stats().Shards, o.spec.Shape, o.spec.DurS, rounds)
	if c := cfg.Controller; c != nil {
		fmt.Printf("forecast: model=%s horizon=%d ticks\n", c.Forecast.Model, c.Forecast.HorizonTicks)
	}

	var srv *http.Server
	if tel != nil {
		// The tenant set is fixed from here on, so scrapes may walk it while
		// rounds run; the registries themselves are concurrency-safe.
		if srv, err = serveObs(o.obs, tel, f); err != nil {
			fmt.Fprintf(os.Stderr, "obs listener: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /debug/vars /debug/pprof/\n", srv.Addr)
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	ckptEveryRounds := max(1, int(o.ckptEvery/cfg.TickS))

	start := time.Now()
run:
	for r := 1; r <= rounds; r++ {
		select {
		case sig := <-sigC:
			fmt.Printf("\n%v: draining fleet at round %d\n", sig, r-1)
			break run
		default:
		}
		f.RoundTo(r)
		if o.crashAt > 0 && float64(r)*cfg.TickS >= o.crashAt {
			return crash(f, o, r)
		}
		if o.Ckpt != "" && r%ckptEveryRounds == 0 && r < rounds {
			if _, err := f.Checkpoint(o.Ckpt); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			}
		}
	}
	wall := time.Since(start).Seconds()

	// Drain: flush every audit mirror, checkpoint every tenant namespace,
	// then stop the inference service — the same sequence a shard process
	// runs on shutdown, so restarts and migrations see identical artifacts.
	f.FlushAudit()
	if o.Ckpt != "" {
		if n, err := f.Checkpoint(o.Ckpt); err != nil {
			fmt.Fprintf(os.Stderr, "final checkpoint: %v\n", err)
		} else {
			fmt.Printf("fleet: checkpointed %d tenant namespace(s) into %s\n", n, o.Ckpt)
		}
	}
	f.Stop()
	report(f, o, wall)

	if o.smoke {
		if err := selfScrape(srv.Addr); err != nil {
			fmt.Fprintf(os.Stderr, "smoke scrape: %v\n", err)
			return 1
		}
		fmt.Println("smoke scrape: /metrics OK")
	}
	if o.hold > 0 {
		fmt.Printf("holding observability endpoints for %ds (ctrl-c to stop)\n", o.hold)
		select {
		case <-time.After(time.Duration(o.hold) * time.Second):
		case <-sigC:
		}
	}
	if f.Stats().Degraded > 0 {
		return 1
	}
	return 0
}

// boot places every tenant: fresh, or — with -ckpt — restored and verified
// against what the previous process left behind. Returns a process exit code.
func boot(f *fleet.Fleet, o *options, rounds int) int {
	restored := 0
	for _, id := range o.TenantIDs() {
		tc := o.spec.TenantConfig(id)
		if o.Ckpt == "" || o.cold {
			if _, err := f.Admit(tc); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			continue
		}
		ticks, err := fleet.CheckpointedTicks(o.Ckpt, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", id, err)
			return 1
		}
		// The dead process can have run at most the whole horizon past its
		// last snapshot.
		t, rep, err := f.Restore(tc, ticks, o.Ckpt, rounds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", id, err)
			return 1
		}
		if rep.SnapshotVerified {
			restored++
			fmt.Printf("restored %s at tick %d (snapshot at %d verified, %d audit bytes prefix-verified=%v, %d ticks replayed past it)\n",
				id, t.Ticks(), ticks, rep.PriorBytes, rep.PriorVerified, rep.ReplayedTicks)
		}
	}
	if o.assertRestore {
		if restored != o.Tenants {
			fmt.Fprintf(os.Stderr, "assert-restore: %d of %d tenants restored from a verified snapshot (no valid snapshot?)\n", restored, o.Tenants)
			return 1
		}
		fmt.Printf("assert-restore OK: %d tenant(s) verified against their snapshots\n", restored)
	}
	return 0
}

// crash is the scripted abrupt death for the recovery drill: flush what the
// OS would plausibly have persisted, append a torn half-record to every
// audit file (a crash mid-append), and skip every graceful-shutdown step.
func crash(f *fleet.Fleet, o *options, round int) int {
	fmt.Printf("simulated crash after round %d: exiting abruptly\n", round)
	f.FlushAudit()
	if o.AuditDir == "" {
		return 42
	}
	for _, t := range f.Tenants() {
		file, err := os.OpenFile(filepath.Join(o.AuditDir, fleet.SanitizeID(t.ID)+".jsonl"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			continue // the drill's next boot reports what it finds
		}
		fmt.Fprintf(file, `{"type":"decision","at":%.3f,"kind":"solve","tot`, t.Eng.Now())
		file.Close()
	}
	return 42
}

// serveObs serves one merged Prometheus page — the fleet-level registry plus
// every tenant's own, each sample of the latter labeled with its tenant —
// next to tel's /debug endpoints.
func serveObs(addr string, tel *obs.Telemetry, f *fleet.Fleet) (*http.Server, error) {
	return tel.Serve(addr, func() string {
		pages := []obs.Exposition{{Text: tel.Reg.Expose()}}
		for _, t := range f.Tenants() {
			pages = append(pages, obs.Exposition{Shard: t.ID, Text: t.Exposition()})
		}
		return obs.MergeExpositions(pages)
	})
}

// report prints the end-of-run summary: one line per tenant, then the
// fleet's totals.
func report(f *fleet.Fleet, o *options, wall float64) {
	for _, tn := range f.Tenants() {
		status := "ok"
		if tn.Degraded() {
			status = fmt.Sprintf("DEGRADED (%v)", tn.PanicValue())
		}
		st := tn.Ctl.Stats()
		fmt.Printf("  %-12s shard %d  ticks %3d  p99 %6.1f ms  violation %5.1fs  health=%s solves=%d boosts=%d breakerTrips=%d  %s\n",
			tn.ID, tn.Shard, tn.Ticks(), tn.LastP99()*1000, tn.ViolationSeconds(),
			tn.Ctl.Health(), tn.Ctl.Solves(), st.Boosts, st.BreakerTrips, status)
		if fc := tn.Ctl.Forecaster(); fc != nil {
			fmt.Printf("  %-12s forecast: model=%s forecastSolves=%d prewarms=%d degradedTicks=%d matured=%d mae=%.1f rps healthy=%v\n",
				tn.ID, fc.ModelName(), st.ForecastSolves, st.Prewarms, st.ForecastDegraded, fc.MaturedN, fc.MAE(), fc.Healthy())
		}
		if lc := tn.Lifecycle(); lc != nil {
			trips, promos, rolls, rejects, retrains, recovers := lc.Stats()
			fmt.Printf("  %-12s lifecycle: phase=%s gen=%d trips=%d retrains=%d promotions=%d rollbacks=%d rejections=%d recoveries=%d\n",
				tn.ID, lc.Phase(), lc.Generation(), trips, retrains, promos, rolls, rejects, recovers)
		}
	}
	st := f.Stats()
	fmt.Printf("fleet done: %d rounds, %d ticks in %.1fs wall (%.1f ticks/s), %d contained panics, %d brownout transitions\n",
		st.Rounds, st.Ticks, wall, float64(st.Ticks)/wall, st.Panics, st.BrownoutTransitions)
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		fmt.Printf("inference: %d model calls, cache hit rate %.1f%% (%d/%d)\n",
			st.CacheMisses, 100*float64(st.CacheHits)/float64(total), st.CacheHits, total)
	}
	if o.AuditDir != "" {
		fmt.Printf("audit logs written to %s\n", o.AuditDir)
	}
}
