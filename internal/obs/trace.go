package obs

// Distributed control-plane tracing (DESIGN.md §3i). The Tracer assigns
// deterministic, seed-derived trace/span IDs so two same-seed runs emit
// byte-identical trace structure — the same replay discipline the audit log
// follows — and spans carry parent links across process boundaries via a
// W3C traceparent-style header, so one trace stitches router fan-out →
// shard tick → tenant controller stages → inference forward passes.
//
// Tracing is strictly additive: spans record wall-clock timestamps for
// flamegraph viewing, but nothing here ever feeds back into a decision or
// an audit record, so enabling it cannot perturb replay. Every method is a
// valid no-op on a nil Tracer / nil ActiveSpan, matching the package's hook
// convention: the disabled path costs one nil check per instrumentation
// point.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanContext identifies one span within one trace — the unit that crosses
// process boundaries. The zero value is "no trace".
type SpanContext struct {
	Trace uint64 `json:"trace"`
	Span  uint64 `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Traceparent renders the context as a W3C-style traceparent header value
// (version 00, 64-bit IDs zero-padded to the wire widths, sampled flag).
func (c SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%032x-%016x-01", c.Trace, c.Span)
}

// ParseTraceparent inverts Traceparent. It accepts any 00-<32 hex>-<16
// hex>-<2 hex> header, reading the low 64 bits of the trace ID.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	tr, err1 := strconv.ParseUint(parts[1][16:], 16, 64)
	sp, err2 := strconv.ParseUint(parts[2], 16, 64)
	if err1 != nil || err2 != nil {
		return SpanContext{}, false
	}
	c := SpanContext{Trace: tr, Span: sp}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// SpanEvent is a point-in-time annotation inside a span (a retry attempt, a
// breaker transition).
type SpanEvent struct {
	Name string `json:"name"`
	AtNS int64  `json:"at_ns"`
	Note string `json:"note,omitempty"`
}

// TraceSpan is one completed span. Proc names the emitting process ("router",
// "shard:127.0.0.1:9001"); Track subdivides a process into flamegraph rows
// (a worker index, a tenant ID).
type TraceSpan struct {
	Trace   uint64             `json:"trace"`
	Span    uint64             `json:"span"`
	Parent  uint64             `json:"parent,omitempty"`
	Name    string             `json:"name"`
	Proc    string             `json:"proc,omitempty"`
	Track   string             `json:"track,omitempty"`
	StartNS int64              `json:"start_ns"`
	DurNS   int64              `json:"dur_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
	Events  []SpanEvent        `json:"events,omitempty"`
}

// Context returns the span's own context, for parenting children.
func (s TraceSpan) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.Span} }

// TracerOptions parameterizes NewTracer.
type TracerOptions struct {
	// Seed drives the deterministic ID sequence. Processes sharing a fleet
	// seed must derive distinct tracer seeds (DeriveTraceSeed) so their span
	// IDs cannot collide within one stitched trace.
	Seed int64
	// Proc names the emitting process on every span.
	Proc string
	// Cap bounds the in-memory span store (default 8192); the oldest spans
	// are dropped once full, counted in dropped.
	Cap int
	// W, when set, receives every completed span as one JSON line.
	W io.Writer
	// Now supplies wall-clock nanoseconds (default time.Now().UnixNano());
	// golden tests inject a fake clock for byte-stable output.
	Now func() int64
}

// Tracer mints spans with seed-derived IDs and retains them in a bounded
// store. Safe for concurrent use; a nil *Tracer is a no-op.
type Tracer struct {
	mu      sync.Mutex
	state   uint64
	proc    string
	cap     int
	spans   []TraceSpan
	head    int
	dropped uint64
	w       io.Writer
	now     func() int64
}

// NewTracer builds a tracer. The ID stream is a splitmix64 sequence seeded
// from o.Seed, so same-seed runs mint identical IDs in identical order.
func NewTracer(o TracerOptions) *Tracer {
	if o.Cap <= 0 {
		o.Cap = 8192
	}
	if o.Now == nil {
		o.Now = func() int64 { return time.Now().UnixNano() }
	}
	return &Tracer{
		state: uint64(o.Seed),
		proc:  o.Proc,
		cap:   o.Cap,
		w:     o.W,
		now:   o.Now,
	}
}

// DeriveTraceSeed maps a shared fleet seed plus a process name to a
// per-process tracer seed, so every process in a same-seed run mints a
// disjoint — but still deterministic — ID stream.
func DeriveTraceSeed(seed int64, proc string) int64 {
	h := fnv.New64a()
	io.WriteString(h, proc)
	return int64(splitmix64(uint64(seed) ^ h.Sum64()))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextID advances the seeded sequence; IDs are never zero.
func (tr *Tracer) nextID() uint64 {
	for {
		tr.state += 0x9e3779b97f4a7c15
		if id := splitmix64(tr.state); id != 0 {
			return id
		}
	}
}

// Proc returns the tracer's process name ("" for nil).
func (tr *Tracer) Proc() string {
	if tr == nil {
		return ""
	}
	return tr.proc
}

// StartRoot opens a new trace with a root span.
func (tr *Tracer) StartRoot(name string) *ActiveSpan {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	trace := tr.nextID()
	span := tr.nextID()
	tr.mu.Unlock()
	return tr.active(TraceSpan{Trace: trace, Span: span, Name: name})
}

// StartChild opens a span under parent; an invalid parent starts a fresh
// trace instead, so call sites need no "is tracing on upstream" branches.
func (tr *Tracer) StartChild(parent SpanContext, name string) *ActiveSpan {
	if tr == nil {
		return nil
	}
	if !parent.Valid() {
		return tr.StartRoot(name)
	}
	tr.mu.Lock()
	span := tr.nextID()
	tr.mu.Unlock()
	return tr.active(TraceSpan{Trace: parent.Trace, Span: span, Parent: parent.Span, Name: name})
}

func (tr *Tracer) active(s TraceSpan) *ActiveSpan {
	s.Proc = tr.proc
	s.StartNS = tr.now()
	return &ActiveSpan{tr: tr, span: s}
}

// Record retrofits an already-measured interval as a completed child span —
// for instrumentation points that timed themselves before tracing existed
// (the controller's stage spans). Returns the new span's context.
func (tr *Tracer) Record(parent SpanContext, name string, startNS, durNS int64, attrs map[string]float64) SpanContext {
	if tr == nil {
		return SpanContext{}
	}
	tr.mu.Lock()
	s := TraceSpan{Name: name, Proc: tr.proc, StartNS: startNS, DurNS: durNS, Attrs: attrs}
	if parent.Valid() {
		s.Trace, s.Parent = parent.Trace, parent.Span
	} else {
		s.Trace = tr.nextID()
	}
	s.Span = tr.nextID()
	tr.addLocked(s)
	tr.mu.Unlock()
	return s.Context()
}

// addLocked stores a completed span (tr.mu held) and streams it as JSONL.
func (tr *Tracer) addLocked(s TraceSpan) {
	if len(tr.spans) < tr.cap {
		tr.spans = append(tr.spans, s)
	} else {
		tr.spans[tr.head] = s
		tr.head = (tr.head + 1) % tr.cap
		tr.dropped++
	}
	if tr.w != nil {
		if b, err := json.Marshal(s); err == nil {
			tr.w.Write(append(b, '\n'))
		}
	}
}

// Snapshot returns the retained spans in completion order.
func (tr *Tracer) Snapshot() []TraceSpan {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TraceSpan, 0, len(tr.spans))
	out = append(out, tr.spans[tr.head:]...)
	out = append(out, tr.spans[:tr.head]...)
	return out
}

// ActiveSpan is an open span. It is owned by one goroutine until End; a nil
// *ActiveSpan (tracing off) no-ops every method.
type ActiveSpan struct {
	tr   *Tracer
	span TraceSpan
	done bool
}

// Context returns the span's context for propagation to children or over
// the wire. Zero when tracing is off.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.span.Context()
}

// SetAttr attaches a numeric attribute; returns s for chaining.
func (s *ActiveSpan) SetAttr(k string, v float64) *ActiveSpan {
	if s == nil {
		return nil
	}
	if s.span.Attrs == nil {
		s.span.Attrs = map[string]float64{}
	}
	s.span.Attrs[k] = v
	return s
}

// SetTrack assigns the span to a named flamegraph row within its process.
func (s *ActiveSpan) SetTrack(track string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.span.Track = track
	return s
}

// Event appends a point-in-time annotation (retry attempt, breaker
// transition) stamped with the tracer's clock.
func (s *ActiveSpan) Event(name, note string) {
	if s == nil {
		return
	}
	s.span.Events = append(s.span.Events, SpanEvent{Name: name, AtNS: s.tr.now(), Note: note})
}

// End closes the span and commits it to the store. Idempotent.
func (s *ActiveSpan) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.span.DurNS = s.tr.now() - s.span.StartNS
	if s.span.DurNS < 0 {
		s.span.DurNS = 0
	}
	s.tr.mu.Lock()
	s.tr.addLocked(s.span)
	s.tr.mu.Unlock()
}

// ChromeTrace writes spans in the Chrome trace_event JSON format (the
// about://tracing / Perfetto "X" complete-event form), one pid per process,
// one tid per (process, track) row. Output is deterministic: spans are
// ordered by start time then IDs, and all JSON object keys are rendered in
// a fixed order, so golden tests can compare bytes.
func ChromeTrace(w io.Writer, spans []TraceSpan) error {
	sorted := append([]TraceSpan(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		return a.Span < b.Span
	})

	pids := map[string]int{}
	var procs []string
	type row struct{ proc, track string }
	tids := map[row]int{}
	nextTid := map[string]int{}
	var rows []row
	for _, s := range sorted {
		if _, ok := pids[s.Proc]; !ok {
			pids[s.Proc] = len(procs) + 1
			procs = append(procs, s.Proc)
		}
		r := row{s.Proc, s.Track}
		if _, ok := tids[r]; !ok {
			nextTid[s.Proc]++
			tids[r] = nextTid[s.Proc]
			rows = append(rows, r)
		}
	}

	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	first := true
	emit := func(line string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString("\n")
		b.WriteString(line)
	}
	for _, p := range procs {
		name := p
		if name == "" {
			name = "proc"
		}
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pids[p], jsonString(name)))
	}
	for _, r := range rows {
		name := r.track
		if name == "" {
			name = "main"
		}
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			pids[r.proc], tids[r], jsonString(name)))
	}
	for _, s := range sorted {
		var args strings.Builder
		fmt.Fprintf(&args, `"trace":"%016x","span":"%016x"`, s.Trace, s.Span)
		if s.Parent != 0 {
			fmt.Fprintf(&args, `,"parent":"%016x"`, s.Parent)
		}
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&args, `,%s:%s`, jsonString(k), formatFloat(s.Attrs[k]))
		}
		for _, ev := range s.Events {
			note := ev.Name
			if ev.Note != "" {
				note += ": " + ev.Note
			}
			fmt.Fprintf(&args, `,%s:%s`,
				jsonString(fmt.Sprintf("event@%.3fus", float64(ev.AtNS-s.StartNS)/1e3)), jsonString(note))
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%s,"cat":"graf","args":{%s}}`,
			pids[s.Proc], tids[row{s.Proc, s.Track}],
			float64(s.StartNS)/1e3, float64(s.DurNS)/1e3,
			jsonString(s.Name), args.String()))
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// StitchedTrace finds the best single trace that crosses at least two
// processes and contains every stage of the control-plane path: the router's
// round root, the shard-side tick handler, a tenant tick, a controller
// decision stage, and an inference forward pass. Returns its trace ID,
// span count, and process count.
func StitchedTrace(spans []TraceSpan) (tid uint64, n, procs int, ok bool) {
	type agg struct {
		names map[string]bool
		procs map[string]bool
		n     int
	}
	byTrace := map[uint64]*agg{}
	for _, s := range spans {
		a := byTrace[s.Trace]
		if a == nil {
			a = &agg{names: map[string]bool{}, procs: map[string]bool{}}
			byTrace[s.Trace] = a
		}
		name := s.Name
		if strings.HasPrefix(name, "decision/") {
			name = "decision"
		}
		a.names[name] = true
		a.procs[s.Proc] = true
		a.n++
	}
	var best *agg
	for id, a := range byTrace {
		full := a.names["router/round"] && a.names["shard/tick"] &&
			a.names["tenant/tick"] && a.names["decision"] &&
			a.names["inference/batch"] && len(a.procs) >= 2
		if full && (best == nil || a.n > best.n) {
			tid, best = id, a
		}
	}
	if best == nil {
		return 0, 0, 0, false
	}
	return tid, best.n, len(best.procs), true
}
