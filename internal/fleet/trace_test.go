package fleet

import (
	"bytes"
	"strings"
	"testing"

	"graf/internal/obs"
)

// TestFleetAuditByteIdenticalWithTracing pins the tentpole invariant:
// enabling tracing must not move a single byte of the audit stream. Spans
// go to the tracer's own store; decisions and SLO records are driven by
// simulated time only.
func TestFleetAuditByteIdenticalWithTracing(t *testing.T) {
	run := func(trace bool) map[string][]byte {
		cfg := testConfig(5, 4, 4)
		if trace {
			cfg.Tracer = obs.NewTracer(obs.TracerOptions{
				Seed: obs.DeriveTraceSeed(cfg.Seed, "test"), Proc: "test",
			})
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Drive both runs through the same round loop; the traced one
		// additionally parents every round under a root span, as the shard
		// server does from the router's traceparent header.
		for r := 1; r <= 30; r++ {
			var span *obs.ActiveSpan
			if trace {
				span = cfg.Tracer.StartRoot("shard/tick")
				f.SetTraceParent(span.Context())
			}
			f.RoundTo(r)
			span.End()
		}
		f.Stop()
		out := map[string][]byte{}
		for _, tn := range f.Tenants() {
			out[tn.ID] = append([]byte(nil), tn.AuditLog()...)
		}
		return out
	}
	plain, traced := run(false), run(true)
	if len(plain) == 0 {
		t.Fatal("no tenants ran")
	}
	for id := range plain {
		if !bytes.Equal(plain[id], traced[id]) {
			t.Errorf("tenant %s: tracing changed the audit log (%d vs %d bytes)",
				id, len(plain[id]), len(traced[id]))
		}
	}
}

// TestFleetTraceCoversControlPlane checks the span vocabulary a stitched
// trace needs: tenant ticks, controller decision stages, and inference
// forward passes all land under the round root.
func TestFleetTraceCoversControlPlane(t *testing.T) {
	cfg := testConfig(4, 3, 3)
	tracer := obs.NewTracer(obs.TracerOptions{
		Seed: obs.DeriveTraceSeed(cfg.Seed, "test"), Proc: "test",
	})
	cfg.Tracer = tracer
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rootTrace uint64
	for r := 1; r <= 10; r++ {
		span := tracer.StartRoot("shard/tick")
		if r == 1 {
			rootTrace = span.Context().Trace
		}
		f.SetTraceParent(span.Context())
		f.RoundTo(r)
		span.End()
	}
	f.Stop()

	names := map[string]int{}
	orphanRoots := 0
	for _, s := range tracer.Snapshot() {
		name := s.Name
		if strings.HasPrefix(name, "decision/") {
			name = "decision"
		}
		names[name]++
		if s.Parent == 0 && s.Name != "shard/tick" {
			orphanRoots++
		}
	}
	for _, want := range []string{"shard/tick", "tenant/tick", "decision", "inference/batch"} {
		if names[want] == 0 {
			t.Errorf("no %q spans recorded (got %v)", want, names)
		}
	}
	if orphanRoots > 0 {
		t.Errorf("%d spans minted orphan root traces instead of joining the round", orphanRoots)
	}
	if rootTrace == 0 {
		t.Fatal("round root had no trace ID")
	}
}

// TestFleetSLOAlertsDeterministicAndAudited runs a fleet with an SLO budget
// twice and checks (a) the audit streams are byte-identical across runs and
// (b) any "slo" records appear in the stream via the flight recorder.
func TestFleetSLOAlertsDeterministicAndAudited(t *testing.T) {
	run := func() map[string][]byte {
		cfg := testConfig(4, 3, 3)
		// A tiny budget with short windows makes ordinary transient
		// violations (if any) alert quickly; determinism holds either way.
		cfg.SLOBudget = &obs.SLOConfig{Budget: 0.001, FastWindowS: 20, SlowWindowS: 60}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Run(30)
		out := map[string][]byte{}
		for _, tn := range f.Tenants() {
			out[tn.ID] = append([]byte(nil), tn.AuditLog()...)
		}
		return out
	}
	a, b := run(), run()
	for id := range a {
		if !bytes.Equal(a[id], b[id]) {
			t.Errorf("tenant %s: SLO-enabled runs diverged", id)
		}
	}
}

// TestFleetSLOOffByDefault: a nil SLOBudget leaves the audit stream exactly
// as it was before the monitor existed (no "slo" records ever).
func TestFleetSLOOffByDefault(t *testing.T) {
	cfg := testConfig(3, 2, 2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(15)
	for _, tn := range f.Tenants() {
		if bytes.Contains(tn.AuditLog(), []byte(`"type":"slo"`)) {
			t.Errorf("tenant %s: slo records present without a budget", tn.ID)
		}
	}
}
