package fleet

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"graf/internal/workload"
)

// Same seed + same tenant set must produce byte-identical per-tenant audit
// logs no matter how the fleet is scheduled: worker count and GOMAXPROCS
// may each change which OS thread runs which tenant when, and
// which tenant's miss fills a cache entry first — none of it may leak into
// a tenant's decisions. The prediction cache is the dangerous part: it is
// shared mutable state whose contents DO depend on scheduling, which is why
// every prediction is computed at the quantized grid point (hit and miss
// then return bit-identical values).
func TestFleetDeterministicAcrossSchedules(t *testing.T) {
	const tenants = 6
	mkCfg := func(workers int) Config {
		cfg := testConfig(tenants, workers)
		// A time-varying rate keeps the solvers busy (hysteresis would
		// otherwise let them coast), maximizing traffic through the shared
		// cache — the path under test.
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate = workload.StepRate(100, 160, 20)
		}
		return cfg
	}
	run := func(workers, maxprocs int) map[string][]byte {
		if maxprocs > 0 {
			old := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(old)
		}
		f, err := New(mkCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		f.Run(40)
		out := map[string][]byte{}
		for _, tn := range f.Tenants() {
			out[tn.ID] = append([]byte(nil), tn.AuditLog()...)
			if tn.Degraded() {
				t.Fatalf("tenant %s unexpectedly degraded", tn.ID)
			}
		}
		return out
	}

	want := run(1, 0) // serial reference schedule
	schedules := []struct {
		workers, maxprocs int
	}{
		{4, 0},
		{8, 0},
		{2, 2},
		{8, 4},
	}
	for _, sc := range schedules {
		got := run(sc.workers, sc.maxprocs)
		for id, log := range want {
			if !bytes.Equal(got[id], log) {
				t.Errorf("workers=%d GOMAXPROCS=%d: tenant %s audit log differs from reference (%d vs %d bytes)",
					sc.workers, sc.maxprocs, id, len(got[id]), len(log))
			}
		}
	}
}

// The shared-service path must also be reproducible against itself when the
// tenant set is permuted: dispatch order is derived from sorted tenant IDs,
// not from Config.Tenants order.
func TestFleetDeterministicUnderTenantPermutation(t *testing.T) {
	mk := func(perm bool) map[string][]byte {
		cfg := testConfig(5, 3)
		if perm {
			for i, j := 0, len(cfg.Tenants)-1; i < j; i, j = i+1, j-1 {
				cfg.Tenants[i], cfg.Tenants[j] = cfg.Tenants[j], cfg.Tenants[i]
			}
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Run(25)
		out := map[string][]byte{}
		for _, tn := range f.Tenants() {
			out[tn.ID] = append([]byte(nil), tn.AuditLog()...)
		}
		return out
	}
	want, got := mk(false), mk(true)
	for id := range want {
		if !bytes.Equal(want[id], got[id]) {
			t.Errorf("tenant %s: audit log depends on Config.Tenants ordering", id)
		}
	}
}

// Repeated same-schedule runs are trivially byte-identical too — a
// regression canary for nondeterminism inside a single schedule (map
// iteration, timing-dependent values).
func TestFleetRepeatedRunsIdentical(t *testing.T) {
	run := func() map[string][]byte {
		f, err := New(testConfig(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		f.Run(25)
		out := map[string][]byte{}
		for _, tn := range f.Tenants() {
			out[tn.ID] = append([]byte(nil), tn.AuditLog()...)
		}
		return out
	}
	a, b := run(), run()
	for id := range a {
		if !bytes.Equal(a[id], b[id]) {
			t.Fatalf("tenant %s: two identical runs diverged", id)
		}
	}
	if len(a) == 0 {
		t.Fatal("no tenants ran")
	}
}

// A fleet driven by Round alone must decide exactly what one bracketed by
// Start does: nothing about a solve may depend on a call the driver can
// forget (Restore and Admit replay ticks in whatever order they are reached).
func TestFleetRoundsWithoutStart(t *testing.T) {
	type digest struct {
		n   int
		sum uint64
	}
	run := func(start bool) map[string]digest {
		cfg := testConfig(3, 2)
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate = workload.StepRate(100, 160, 20)
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if start {
			f.Start()
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for r := 0; r < 8; r++ {
				f.Round()
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Round() without Start() did not return")
		}
		f.Stop()
		out := map[string]digest{}
		for _, tn := range f.Tenants() {
			n, sum := tn.AuditDigest()
			out[tn.ID] = digest{n, sum}
		}
		return out
	}
	want, got := run(true), run(false)
	for id, d := range want {
		if d.n == 0 || got[id] != d {
			t.Errorf("tenant %s: digest %v without Start, %v with", id, got[id], d)
		}
	}
}
