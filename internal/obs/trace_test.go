package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a deterministic nanosecond source: each call advances by
// step, so span durations and event offsets are byte-stable.
func fakeClock(startNS, stepNS int64) func() int64 {
	t := startNS - stepNS
	return func() int64 {
		t += stepNS
		return t
	}
}

// buildFixtureSpans emits a small two-process trace — router round → shard
// tick → tenant tick with a retry event and a batched-inference leaf — with
// fully deterministic IDs and timestamps.
func buildFixtureSpans() []TraceSpan {
	router := NewTracer(TracerOptions{
		Seed: DeriveTraceSeed(7, "router"), Proc: "router",
		Now: fakeClock(1_000_000, 250_000),
	})
	shard := NewTracer(TracerOptions{
		Seed: DeriveTraceSeed(7, "shard:a"), Proc: "shard:a",
		Now: fakeClock(1_100_000, 200_000),
	})

	round := router.StartRoot("router/round").SetAttr("round", 3)
	rpcSpan := router.StartChild(round.Context(), "rpc/tick").SetTrack("127.0.0.1:9001")
	rpcSpan.Event("breaker", "half-open")

	// The shard continues the trace from the wire context, exactly as the
	// server does from the traceparent header.
	wire, _ := ParseTraceparent(rpcSpan.Context().Traceparent())
	tick := shard.StartChild(wire, "shard/tick").SetAttr("round", 3)
	tenant := shard.StartChild(tick.Context(), "tenant/tick").SetTrack("tenant-00")
	shard.Record(tenant.Context(), "decision/solve", 1_500_000, 90_000, map[string]float64{"iters": 12})
	batch := shard.StartChild(tenant.Context(), "inference/batch").SetAttr("size", 4)
	batch.End()
	tenant.End()
	tick.End()
	rpcSpan.End()
	round.End()

	return append(router.Snapshot(), shard.Snapshot()...)
}

// TestTracerDeterministicIDs pins the replay discipline: same seed, same
// operation sequence → identical span identity, whatever the wall clock did.
func TestTracerDeterministicIDs(t *testing.T) {
	run := func(clock func() int64) []TraceSpan {
		tr := NewTracer(TracerOptions{Seed: 42, Proc: "p", Now: clock})
		root := tr.StartRoot("a")
		child := tr.StartChild(root.Context(), "b")
		tr.Record(child.Context(), "c", 5, 10, nil)
		child.End()
		root.End()
		return tr.Snapshot()
	}
	a := run(fakeClock(0, 1))
	b := run(fakeClock(1_000_000, 999)) // a very different clock
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].Span != b[i].Span || a[i].Parent != b[i].Parent {
			t.Errorf("span %d identity differs: %x/%x/%x vs %x/%x/%x",
				i, a[i].Trace, a[i].Span, a[i].Parent, b[i].Trace, b[i].Span, b[i].Parent)
		}
	}
	if DeriveTraceSeed(42, "router") == DeriveTraceSeed(42, "shard:a") {
		t.Error("distinct processes derived the same tracer seed")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	c := SpanContext{Trace: 0xdeadbeef01020304, Span: 0x0000000000000001}
	hdr := c.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || len(hdr) != 2+1+32+1+16+1+2 {
		t.Fatalf("malformed traceparent %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != c {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, c)
	}
	for _, bad := range []string{"", "00-zz-ff-01", "01-" + hdr[3:], hdr[:40],
		"00-00000000000000000000000000000000-0000000000000000-01"} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

// TestStartChildInvalidParent checks the no-upstream-branch contract: an
// invalid parent silently starts a fresh trace.
func TestStartChildInvalidParent(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 1, Now: fakeClock(0, 1)})
	s := tr.StartChild(SpanContext{}, "orphan")
	s.End()
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Parent != 0 || spans[0].Trace == 0 {
		t.Fatalf("want one fresh root, got %+v", spans)
	}
}

func TestTracerBoundedStore(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 1, Cap: 4, Now: fakeClock(0, 1)})
	for i := 0; i < 10; i++ {
		tr.StartRoot("s").End()
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Errorf("store holds %d spans, want cap 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6", got)
	}
}

// TestTracerNilSafe exercises every method on nil receivers — the disabled
// path every instrumentation point takes.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Proc() != "" || tr.Snapshot() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer accessors not zero")
	}
	s := tr.StartRoot("x")
	s = s.SetAttr("k", 1).SetTrack("t")
	s.Event("e", "")
	if s.Context().Valid() {
		t.Error("nil span context should be invalid")
	}
	s.End()
	if c := tr.Record(SpanContext{}, "y", 0, 1, nil); c.Valid() {
		t.Error("nil tracer Record returned a valid context")
	}
}

// TestTracerRace hammers one tracer from many goroutines; run with -race.
func TestTracerRace(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 9, Proc: "p", Cap: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartRoot("r")
				c := tr.StartChild(root.Context(), "c").SetAttr("i", float64(i))
				c.Event("e", "note")
				tr.Record(c.Context(), "leaf", int64(i), 1, nil)
				c.End()
				root.End()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Snapshot()
				tr.Dropped()
			}
		}()
	}
	wg.Wait()
}

// TestTracerJSONLWriter checks the streaming sink gets one parseable line
// per completed span.
func TestTracerJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerOptions{Seed: 3, W: &buf, Now: fakeClock(0, 1)})
	tr.StartRoot("a").End()
	tr.StartRoot("b").End()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d: %q", len(lines), buf.String())
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"trace":`) {
			t.Errorf("unexpected JSONL line %q", ln)
		}
	}
}

// TestChromeTraceGolden pins the exporter's exact bytes: metadata events,
// pid/tid assignment, µs timestamps, sorted args, event annotations.
func TestChromeTraceGolden(t *testing.T) {
	var got bytes.Buffer
	if err := ChromeTrace(&got, buildFixtureSpans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Chrome export drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// TestChromeTraceDeterministic re-exports the same spans shuffled and
// expects identical bytes — the exporter owns its ordering.
func TestChromeTraceDeterministic(t *testing.T) {
	spans := buildFixtureSpans()
	var a, b bytes.Buffer
	if err := ChromeTrace(&a, spans); err != nil {
		t.Fatal(err)
	}
	rev := make([]TraceSpan, len(spans))
	for i, s := range spans {
		rev[len(spans)-1-i] = s
	}
	if err := ChromeTrace(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("export depends on input order")
	}
}

// TestChromeTraceStitches checks the fixture really is one cross-process
// trace: every span shares the router root's trace ID.
func TestChromeTraceStitches(t *testing.T) {
	spans := buildFixtureSpans()
	if len(spans) < 6 {
		t.Fatalf("fixture too small: %d spans", len(spans))
	}
	trace := spans[0].Trace
	procs := map[string]bool{}
	for _, s := range spans {
		if s.Trace != trace {
			t.Errorf("span %s broke out of trace %x (got %x)", s.Name, trace, s.Trace)
		}
		procs[s.Proc] = true
	}
	if len(procs) != 2 {
		t.Errorf("fixture spans %d processes, want 2", len(procs))
	}
}

// Dropped counts spans evicted from the bounded store.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}
