// Package trace is the distributed-tracing substrate (the paper's Jaeger,
// §3.2). The cluster simulator emits one Span per microservice invocation;
// the Collector groups spans into Traces and derives the per-API execution
// statistics the Workload Analyzer (§3.3) consumes: which microservices an
// API touches and how many times, at the 90th percentile of observed request
// histories.
package trace

import (
	"math"
	"sort"
)

// Span records one microservice invocation within a request.
type Span struct {
	TraceID int64
	API     string
	Service string
	Parent  string // calling service; "" for the frontend span

	Start float64 // arrival at the service (seconds, simulated)
	End   float64 // response sent (seconds, simulated)
	Queue float64 // portion of Start..End spent waiting for an instance
}

// Duration returns the span's wall-clock time in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Trace is the full tree of spans for one end-to-end request.
type Trace struct {
	ID    int64
	API   string
	Spans []Span

	// Errors counts calls within the request that exhausted their retries
	// and returned a failure to their caller (Jaeger's error tag).
	Errors int
}

// EndToEnd returns the end-to-end latency in seconds: the root span's
// duration (the root encloses all children, as in Jaeger).
func (t Trace) EndToEnd() float64 {
	best := 0.0
	for _, s := range t.Spans {
		if s.Parent == "" && s.Duration() > best {
			best = s.Duration()
		}
	}
	return best
}

// Visits returns how many times each service appears in the trace.
func (t Trace) Visits() map[string]int {
	m := make(map[string]int)
	for _, s := range t.Spans {
		m[s.Service]++
	}
	return m
}

// ring holds one API's retained traces. It grows by appending until the
// collector's cap is reached and from then on overwrites its oldest trace.
type ring struct {
	buf   []Trace // the oldest retained trace is buf[head]
	head  int
	spare []Span  // Spans array of the last evicted trace, until Spare takes it
	view  []Trace // Traces' oldest-first copy once the ring has wrapped

	// Visit counts of the retained traces, which Collect keeps current so
	// that VisitProfile need not walk them: hist[i][n] is how many retained
	// traces visit svcs[i] exactly n ≥ 1 times. An API touches a handful of
	// services, so a span finds its service by scanning svcs — the names
	// come from one call tree and usually compare equal by pointer.
	svcs  []string
	hist  [][]int
	visit []int // visits per service of the trace being tallied; zero between calls
}

// tally adds delta to the histogram cell of every service t visits.
func (r *ring) tally(t *Trace, delta int) {
spans:
	for i := range t.Spans {
		svc := t.Spans[i].Service
		for j, known := range r.svcs {
			if known == svc {
				r.visit[j]++
				continue spans
			}
		}
		r.svcs = append(r.svcs, svc)
		r.hist = append(r.hist, nil)
		r.visit = append(r.visit, 1)
	}
	for j, n := range r.visit {
		if n == 0 {
			continue
		}
		for len(r.hist[j]) <= n {
			r.hist[j] = append(r.hist[j], 0)
		}
		r.hist[j][n] += delta
		r.visit[j] = 0
	}
}

// Collector accumulates completed traces. Cap bounds retained traces per API
// (oldest evicted first); 0 means unbounded.
type Collector struct {
	Cap    int
	byAPI  map[string]*ring
	nTotal int
}

// NewCollector returns a collector retaining at most cap traces per API
// (0 = unbounded).
func NewCollector(cap int) *Collector {
	return &Collector{Cap: cap, byAPI: make(map[string]*ring)}
}

// Collect stores one completed trace and takes ownership of t.Spans.
func (c *Collector) Collect(t Trace) {
	r := c.byAPI[t.API]
	if r == nil {
		r = &ring{}
		c.byAPI[t.API] = r
	}
	c.nTotal++
	r.tally(&t, 1)
	if c.Cap <= 0 || len(r.buf) < c.Cap {
		r.buf = append(r.buf, t)
		return
	}
	oldest := &r.buf[r.head]
	r.tally(oldest, -1)
	r.spare = oldest.Spans[:0]
	*oldest = t
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// Spare hands back the Spans array of the trace api's last Collect evicted,
// emptied, for the caller to build a later trace in; nil when that Collect
// evicted nothing or the array was already taken. It lets a producer that
// collects one trace per request run without allocating span storage once
// the ring is full.
func (c *Collector) Spare(api string) []Span {
	r := c.byAPI[api]
	if r == nil {
		return nil
	}
	s := r.spare
	r.spare = nil
	return s
}

// Total returns the number of traces ever collected.
func (c *Collector) Total() int { return c.nTotal }

// APIs returns the API names seen, sorted.
func (c *Collector) APIs() []string {
	names := make([]string, 0, len(c.byAPI))
	for k := range c.byAPI {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Traces returns the retained traces for api, oldest first. The slice and
// the Spans inside it are the collector's own storage: do not mutate them,
// and do not use them after the next Collect, which may overwrite both.
func (c *Collector) Traces(api string) []Trace {
	r := c.byAPI[api]
	if r == nil {
		return nil
	}
	if r.head == 0 {
		return r.buf
	}
	r.view = append(append(r.view[:0], r.buf[r.head:]...), r.buf[:r.head]...)
	return r.view
}

// retained returns api's traces in storage order, for the order-independent
// statistics below.
func (c *Collector) retained(api string) []Trace {
	if r := c.byAPI[api]; r != nil {
		return r.buf
	}
	return nil
}

// VisitProfile returns, for each service touched by api, the q-quantile of
// per-trace visit counts. The paper chooses the 90th percentile of request
// histories to represent an API's behaviour (§3.3): "from the history
// 90%-ile samples are chosen". The Workload Analyzer calls this every solve
// tick over the whole retained history, so it reads the histograms Collect
// maintains rather than the traces.
func (c *Collector) VisitProfile(api string, q float64) map[string]float64 {
	r := c.byAPI[api]
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	// Nearest-rank, matching metrics.Digest.Quantile.
	traces := len(r.buf)
	rank := min(max(int(math.Ceil(q*float64(traces))), 1), traces)
	out := make(map[string]float64, len(r.svcs))
	for i, h := range r.hist {
		// Services missing from some traces count as zero visits there.
		atMost := traces
		for _, k := range h {
			atMost -= k
		}
		if atMost == traces {
			continue // every trace that visited it has been evicted
		}
		n := 0
		for atMost < rank {
			n++
			atMost += h[n]
		}
		out[r.svcs[i]] = float64(n)
	}
	return out
}

// Edges returns the set of caller→callee pairs observed for api. The GNN's
// message-passing structure is "constructed from microservices tracing data"
// (§3.4); this is that construction.
func (c *Collector) Edges(api string) map[[2]string]bool {
	out := make(map[[2]string]bool)
	for _, t := range c.retained(api) {
		for _, s := range t.Spans {
			if s.Parent != "" {
				out[[2]string{s.Parent, s.Service}] = true
			}
		}
	}
	return out
}

// AllEdges unions Edges over every API.
func (c *Collector) AllEdges() map[[2]string]bool {
	out := make(map[[2]string]bool)
	for api := range c.byAPI {
		for e := range c.Edges(api) {
			out[e] = true
		}
	}
	return out
}

// Reset discards all retained traces but keeps the total counter.
func (c *Collector) Reset() { c.byAPI = make(map[string]*ring) }
