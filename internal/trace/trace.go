// Package trace is the distributed-tracing substrate (the paper's Jaeger,
// §3.2). The cluster simulator emits one Span per microservice invocation;
// the Collector groups spans into Traces and derives the per-API execution
// statistics the Workload Analyzer (§3.3) consumes: which microservices an
// API touches and how many times, at the 90th percentile of observed request
// histories.
package trace

import (
	"math"
	"slices"
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

// ring holds what the collector keeps of one API's retained traces: how many
// times each visited each service, which is all its one reader (VisitProfile)
// needs. It grows by appending until the collector's cap is reached and from
// then on overwrites its oldest trace.
type ring struct {
	// idx[i] is the position in vecs of one retained trace's visit vector,
	// the oldest trace at idx[head]. Traces share vectors: an API whose calls
	// never fail has one, a failed call adds another, and however they fail
	// there are never more vectors than retained traces — a vector no trace
	// refers to is the first to be overwritten.
	idx  []uint32
	head int
	vecs []vector

	// An API touches a handful of services, so a span finds its service by
	// scanning svcs — the names come from one call tree and usually compare
	// equal by pointer.
	svcs   []string
	visit  []int32 // visits per service of the trace being collected; zero between calls
	traces []int   // VisitProfile's count of traces by visits to one service
}

// vector is one distinct visit vector: visits per service of svcs, trailing
// zeros cut so that it stays comparable while svcs grows, and the number of
// retained traces that have it.
type vector struct {
	visits []int32
	refs   int
}

// intern adds a reference to the visit vector of spans and returns its
// position in vecs. It finds it by scanning: a ring has a handful of vectors.
func (r *ring) intern(spans []Span) uint32 {
spans:
	for i := range spans {
		svc := spans[i].Service
		for j, known := range r.svcs {
			if known == svc {
				r.visit[j]++
				continue spans
			}
		}
		r.svcs = append(r.svcs, svc)
		r.visit = append(r.visit, 1)
	}
	visits := r.visit
	for len(visits) > 0 && visits[len(visits)-1] == 0 {
		visits = visits[:len(visits)-1]
	}
	slot := slices.IndexFunc(r.vecs, func(v vector) bool { return v.refs > 0 && slices.Equal(v.visits, visits) })
	if slot < 0 {
		if slot = slices.IndexFunc(r.vecs, func(v vector) bool { return v.refs == 0 }); slot < 0 {
			slot = len(r.vecs)
			r.vecs = append(r.vecs, vector{})
		}
		r.vecs[slot].visits = append(r.vecs[slot].visits[:0], visits...)
	}
	r.vecs[slot].refs++
	clear(visits)
	return uint32(slot)
}

// Collector accumulates completed traces. Cap bounds retained traces per API
// (oldest evicted first); 0 means unbounded. It retains a trace's visit
// counts, not its spans: a reader that wants those observes the traces as
// they are produced (cluster.Cluster.OnTrace) and keeps them in a Recorder.
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

// Collect counts one completed trace. It only reads t.Spans, which stay the
// caller's.
func (c *Collector) Collect(t Trace) {
	r := c.byAPI[t.API]
	if r == nil {
		r = &ring{}
		c.byAPI[t.API] = r
	}
	c.nTotal++
	if c.Cap <= 0 || len(r.idx) < c.Cap {
		r.idx = append(r.idx, r.intern(t.Spans))
		return
	}
	r.vecs[r.idx[r.head]].refs-- // first, so that the table never has more vectors than Cap
	r.idx[r.head] = r.intern(t.Spans)
	if r.head++; r.head == len(r.idx) {
		r.head = 0
	}
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

// VisitProfile returns, for each service touched by api, the q-quantile of
// per-trace visit counts. The paper chooses the 90th percentile of request
// histories to represent an API's behaviour (§3.3): "from the history
// 90%-ile samples are chosen". The Workload Analyzer calls this every solve
// tick over the whole retained history, so it reads the table of distinct
// visit vectors and their reference counts rather than the traces.
func (c *Collector) VisitProfile(api string, q float64) map[string]float64 {
	r := c.byAPI[api]
	if r == nil || len(r.idx) == 0 {
		return nil
	}
	// Nearest-rank, matching metrics.Digest.Quantile.
	rank := min(max(int(math.Ceil(q*float64(len(r.idx)))), 1), len(r.idx))
	out := make(map[string]float64, len(r.svcs))
	for j, svc := range r.svcs {
		// traces[n] retained traces visit svc n times; a vector too short to
		// mention it, zero times.
		clear(r.traces)
		for _, v := range r.vecs {
			n := 0
			if j < len(v.visits) {
				n = int(v.visits[j])
			}
			for len(r.traces) <= n {
				r.traces = append(r.traces, 0)
			}
			r.traces[n] += v.refs
		}
		if r.traces[0] == len(r.idx) {
			continue // every trace that visited it has been evicted
		}
		n, atMost := 0, r.traces[0]
		for atMost < rank {
			n++
			atMost += r.traces[n]
		}
		out[svc] = float64(n)
	}
	return out
}

// Reset discards all retained traces but keeps the total counter.
func (c *Collector) Reset() { c.byAPI = make(map[string]*ring) }

// Recorder keeps copies of whole traces, spans included — the last Cap per
// API, 0 for all — for the tests and exporters that want what the Collector
// does not retain. Record is a cluster.Cluster.OnTrace observer.
type Recorder struct {
	Cap   int
	byAPI map[string][]Trace
}

// Record copies t, which its producer may reuse once Record returns.
func (r *Recorder) Record(t *Trace) {
	if r.byAPI == nil {
		r.byAPI = make(map[string][]Trace)
	}
	kept := *t
	kept.Spans = append([]Span(nil), t.Spans...)
	list := append(r.byAPI[t.API], kept)
	if r.Cap > 0 && len(list) > r.Cap {
		list = list[1:]
	}
	r.byAPI[t.API] = list
}

// Traces returns the recorded traces of api, oldest first.
func (r *Recorder) Traces(api string) []Trace { return r.byAPI[api] }

// Edges returns the set of caller→callee pairs recorded for api. The GNN's
// message-passing structure is "constructed from microservices tracing data"
// (§3.4); this is that construction.
func (r *Recorder) Edges(api string) map[[2]string]bool {
	out := make(map[[2]string]bool)
	for _, t := range r.byAPI[api] {
		for _, s := range t.Spans {
			if s.Parent != "" {
				out[[2]string{s.Parent, s.Service}] = true
			}
		}
	}
	return out
}
