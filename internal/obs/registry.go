// Package obs is the flight-recorder telemetry subsystem: a stdlib-only
// metrics registry with Prometheus text exposition, distributed tracing of
// the decision stages when a Tracer is attached (trace.go), and a JSONL
// audit log from which recorded decisions can be replayed bit-identically. It
// plays the role Prometheus + Jaeger play around the paper's deployment,
// but for the control plane itself: the collect→predict→solve→actuate loop,
// the gradient-descent solver, training, cluster scale events, and chaos
// firings all report here.
//
// Everything is safe for concurrent use — the simulation runs on one
// goroutine while an HTTP scraper reads on another — and every hook type
// (ControllerObs, ClusterObs, ChaosObs, TrainObs) is a valid no-op when
// nil, so the paper-exact loop pays one nil check per instrumentation point
// when observability is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant label pairs attached to one child of a metric family.
type Labels map[string]string

// appendKey appends the labels' deterministic serialization — the map key
// of a family's child, and its label set in exposition — to dst:
// k1="v1",k2="v2" in key order. Up to four labels are sorted in a stack
// array, so a lookup into a stack buffer allocates nothing.
func (l Labels) appendKey(dst []byte) []byte {
	var arr [4]string
	keys := arr[:0]
	for k := range l {
		keys = append(keys, k)
		i := len(keys) - 1
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		dst = append(dst, `="`...)
		dst = append(dst, escapeLabel(l[k])...)
		dst = append(dst, '"')
	}
	return dst
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (v must be ≥ 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets (Prometheus
// histogram semantics) with their sum and count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// DefBuckets are the default latency-shaped buckets (seconds).
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially spaced bucket bounds starting at start.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns bucket cumulative counts, sum and count under the lock.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	running := uint64(0)
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// metricKind discriminates family types for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with zero or more labeled children.
type family struct {
	name     string
	help     string
	kind     metricKind
	bounds   []float64 // histograms only
	children map[string]any
	order    []string // child label keys in registration order
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) child(name, help string, kind metricKind, labels Labels, bounds []float64) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, children: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	var buf [128]byte
	kb := labels.appendKey(buf[:0])
	if c, ok := f.children[string(kb)]; ok {
		return c
	}
	key := string(kb)
	var c any
	switch kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	case kindHistogram:
		c = newHistogram(f.bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter registers (or fetches) a counter with the given constant labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.child(name, help, kindCounter, labels, nil).(*Counter)
}

// Gauge registers (or fetches) a gauge with the given constant labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.child(name, help, kindGauge, labels, nil).(*Gauge)
}

// Histogram registers (or fetches) a histogram. The bucket bounds are fixed
// at the family's first registration (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return r.child(name, help, kindHistogram, labels, bounds).(*Histogram)
}

// Expose renders the registry in the Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE pair per family, children in registration
// order, histograms with cumulative le buckets plus _sum and _count.
func (r *Registry) Expose() string {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		r.mu.Unlock()
		for i, key := range keys {
			switch c := children[i].(type) {
			case *Counter:
				writeSample(&b, f.name, key, "", c.Value())
			case *Gauge:
				writeSample(&b, f.name, key, "", c.Value())
			case *Histogram:
				cum, sum, count := c.snapshot()
				for bi, bound := range c.bounds {
					writeSample(&b, f.name+"_bucket", joinLabels(key, fmt.Sprintf(`le="%s"`, formatFloat(bound))), "", float64(cum[bi]))
				}
				writeSample(&b, f.name+"_bucket", joinLabels(key, `le="+Inf"`), "", float64(cum[len(cum)-1]))
				writeSample(&b, f.name+"_sum", key, "", sum)
				writeSample(&b, f.name+"_count", key, "", float64(count))
			}
		}
	}
	return b.String()
}

// joinLabels merges two serialized label fragments.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trippable decimal.
func formatFloat(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func writeSample(b *strings.Builder, name, labels, suffix string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// Snapshot returns a flat name→value map of counters and gauges plus
// histogram sums/counts — the payload published under /debug/vars.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range fams {
		r.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		r.mu.Unlock()
		for i, key := range keys {
			name := f.name
			if key != "" {
				name += "{" + key + "}"
			}
			switch c := children[i].(type) {
			case *Counter:
				out[name] = c.Value()
			case *Gauge:
				out[name] = c.Value()
			case *Histogram:
				out[name+"_count"] = float64(c.Count())
				out[name+"_sum"] = c.Sum()
			}
		}
	}
	return out
}
