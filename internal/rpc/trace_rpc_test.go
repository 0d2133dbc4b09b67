package rpc

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graf/internal/fleet"
	"graf/internal/obs"
)

// TestRoutedRunTracedByteIdenticalAndStitched is the tentpole acceptance
// drill in-process: a two-shard routed run with tracing and an SLO budget
// enabled must (a) stay byte-identical to the single-process reference,
// (b) produce one trace that stitches router round → shard tick → tenant
// tick → decision stages → inference across processes, and (c)
// serve shard metrics on the control-plane mux for the router to federate.
func TestRoutedRunTracedByteIdenticalAndStitched(t *testing.T) {
	bundle := testBundle(t)
	ckpt, audit := t.TempDir(), t.TempDir()
	mkShard := func() (*ShardServer, string) {
		s := &ShardServer{Bundle: bundle, CkptDir: ckpt, AuditDir: audit, Tel: obs.New(obs.Options{})}
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown() })
		return s, addr
	}
	_, addr1 := mkShard()
	_, addr2 := mkShard()

	spec := testSpec()
	spec.Trace = true
	spec.SLOBudget = &obs.SLOConfig{Budget: 0.001, FastWindowS: 20, SlowWindowS: 60}
	ids := tenantIDs(6)
	const rounds = 8

	tel := obs.New(obs.Options{})
	tracer := obs.NewTracer(obs.TracerOptions{
		Seed: obs.DeriveTraceSeed(spec.Seed, "router"), Proc: "router",
	})
	r, err := NewRouter(RouterConfig{
		Spec: spec, Tenants: ids,
		Obs: obs.NewRouterObs(tel), RPCObs: obs.NewRPCObs(tel), Tracer: tracer,
	}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.LostDecisions != 0 {
		t.Fatalf("lost decisions: %+v", st)
	}

	// (a) Tracing + SLO telemetry moved no audit bytes: the routed run
	// still reproduces the single-process reference exactly. The reference
	// carries the same SLOBudget via the shared spec.
	want := referenceAudit(t, bundle, spec, ids, rounds)
	for _, ts := range r.TenantStates() {
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil {
			t.Fatalf("tenant %s: %v", ts.ID, err)
		}
		if !bytes.Equal(b, want[ts.ID]) {
			t.Errorf("tenant %s: traced routed run differs from reference (%d vs %d bytes)",
				ts.ID, len(b), len(want[ts.ID]))
		}
	}

	// (b) One trace crosses the whole control plane. Pull every shard's
	// span buffer over /v1/traces and merge with the router's own spans.
	spans := tracer.Snapshot()
	procs := map[string]bool{"router": true}
	cl := newClient(1, nil)
	for _, addr := range []string{addr1, addr2} {
		resp, err := cl.Traces(addr)
		if err != nil {
			t.Fatalf("traces from %s: %v", addr, err)
		}
		if !strings.HasPrefix(resp.Proc, "shard:") {
			t.Errorf("shard proc name %q, want shard:<addr>", resp.Proc)
		}
		procs[resp.Proc] = true
		spans = append(spans, resp.Spans...)
	}
	_, _, _, stitched := obs.StitchedTrace(spans)
	if !stitched {
		seen := map[string]int{}
		for _, s := range spans {
			seen[s.Name]++
		}
		t.Fatalf("no stitched cross-process trace; span names seen: %v", seen)
	}

	// (c) Shard metrics ride the control-plane mux; the merged federation
	// view carries per-shard children for shared families.
	var pages []obs.Exposition
	for _, addr := range []string{addr1, addr2} {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("scrape %s: %v", addr, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		page := string(b)
		// Every shard serves its op histograms; graf_slo_* appears only on
		// shards that own at least one tenant (the ring may skew), so that
		// family is asserted on the merged view below.
		if !strings.Contains(page, "graf_shard_op_seconds") {
			t.Errorf("shard %s /metrics missing graf_shard_op_seconds", addr)
		}
		pages = append(pages, obs.Exposition{Shard: addr, Text: page})
	}
	merged := obs.MergeExpositions(append(
		[]obs.Exposition{{Shard: "router", Text: tel.Reg.Expose()}}, pages...))
	for _, want := range []string{
		"graf_router_round_seconds",
		"graf_rpc_request_seconds",
		"graf_slo_burn_rate",
		`graf_shard_op_seconds_count{shard="` + addr1 + `"`,
		`graf_shard_op_seconds_count{shard="` + addr2 + `"`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("federated view missing %q", want)
		}
	}
	if n := strings.Count(merged, "# TYPE graf_shard_op_seconds "); n != 1 {
		t.Errorf("federated view has %d graf_shard_op_seconds TYPE headers, want 1", n)
	}

	// The shard debug surface is mounted too.
	resp, err := http.Get("http://" + addr1 + "/debug/vars")
	if err != nil {
		t.Fatalf("debug/vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug/vars status %d", resp.StatusCode)
	}
}

// TestClientTraceHeaderPropagates checks the wire contract in isolation: a
// parented client call must deliver a parseable traceparent header whose
// trace ID matches the parent.
func TestClientTraceHeaderPropagates(t *testing.T) {
	bundle := testBundle(t)
	s, addr := startShard(t, bundle, t.TempDir(), t.TempDir())
	_ = s

	tracer := obs.NewTracer(obs.TracerOptions{Seed: 11, Proc: "router"})
	c := newClient(1, nil)
	c.Tracer = tracer

	spec := testSpec()
	spec.Trace = true
	if err := c.Configure(addr, spec); err != nil {
		t.Fatal(err)
	}
	root := tracer.StartRoot("router/round")
	if _, err := c.Admit(addr, "tenant-00", 0, root.Context()); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(addr, 1, &TickResponse{}, root.Context()); err != nil {
		t.Fatal(err)
	}
	root.End()

	resp, err := c.Traces(addr)
	if err != nil {
		t.Fatal(err)
	}
	joined := 0
	for _, sp := range resp.Spans {
		if sp.Trace == root.Context().Trace {
			joined++
		}
	}
	if joined == 0 {
		t.Fatalf("no shard span joined the router trace %x; shard spans: %d", root.Context().Trace, len(resp.Spans))
	}
}
