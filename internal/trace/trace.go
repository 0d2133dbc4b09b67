// Package trace is the distributed-tracing substrate (the paper's Jaeger,
// §3.2). The Collector keeps, per API, the history of how many times each
// request visited each microservice and derives from it what the Workload
// Analyzer (§3.3) consumes: which microservices an API touches and how many
// times, at the 90th percentile of observed request histories. The cluster
// simulator gives it one visit vector per completed request; only for an
// observer (cluster.Cluster.OnTrace) does it build a Trace of one Span per
// microservice invocation.
package trace

import (
	"fmt"
	"math"
	"slices"
)

// Span records one microservice invocation within a request.
type Span struct {
	Service string
	Parent  string // calling service; "" for the frontend span

	Start float64 // arrival at the service (seconds, simulated)
	End   float64 // response sent (seconds, simulated)
	Queue float64 // portion of Start..End spent waiting for an instance
}

// Trace is the full tree of spans for one end-to-end request.
type Trace struct {
	ID    int64
	API   string
	Spans []Span

	// Errors counts calls within the request that exhausted their retries
	// and returned a failure to their caller (Jaeger's error tag).
	Errors int
}

// ring holds what the collector keeps of one API's retained traces: how many
// times each visited each service, which is all its one reader (VisitProfile)
// needs. It is a FIFO of runs of consecutive traces with the same visit
// vector, newest last: an API whose calls never fail is one run however many
// traces it retains. It grows until the collector's cap is reached and from
// then on evicts its oldest trace for each new one.
type ring struct {
	runs  []run // a circular buffer of nruns runs from head; len is zero or a power of two
	head  int
	nruns int
	n     int // traces retained, the sum of the runs' lengths

	// vecs are the distinct visit vectors of the retained traces; however
	// they fail there are never more of them than traces, because a vector no
	// trace refers to is the first to be overwritten.
	vecs   []vector
	traces []int // VisitProfile's count of traces by visits to one service
}

// run is n consecutive traces whose visit vector is vecs[slot].
type run struct{ slot, n uint32 }

// vector is one distinct visit vector — visits per service of the
// collector's services — and the number of retained traces that have it.
type vector struct {
	visits []int32
	refs   int
}

// push appends one trace with visit vector visits.
func (r *ring) push(visits []int32) {
	slot := r.intern(visits)
	r.n++
	mask := len(r.runs) - 1
	if r.nruns > 0 {
		if last := &r.runs[(r.head+r.nruns-1)&mask]; last.slot == slot {
			last.n++
			return
		}
	}
	if r.nruns == len(r.runs) {
		grown := make([]run, max(4, 2*len(r.runs)))
		for i := 0; i < r.nruns; i++ {
			grown[i] = r.runs[(r.head+i)&mask]
		}
		r.runs, r.head, mask = grown, 0, len(grown)-1
	}
	r.runs[(r.head+r.nruns)&mask] = run{slot: slot, n: 1}
	r.nruns++
}

// pop evicts the oldest trace.
func (r *ring) pop() {
	first := &r.runs[r.head]
	r.vecs[first.slot].refs--
	r.n--
	if first.n--; first.n == 0 {
		r.head = (r.head + 1) & (len(r.runs) - 1)
		r.nruns--
	}
}

// intern adds a reference to visits and returns its position in vecs. It
// finds it by scanning: a ring has a handful of vectors.
func (r *ring) intern(visits []int32) uint32 {
	slot := slices.IndexFunc(r.vecs, func(v vector) bool { return v.refs > 0 && slices.Equal(v.visits, visits) })
	if slot < 0 {
		if slot = slices.IndexFunc(r.vecs, func(v vector) bool { return v.refs == 0 }); slot < 0 {
			slot = len(r.vecs)
			r.vecs = append(r.vecs, vector{})
		}
		r.vecs[slot].visits = append(r.vecs[slot].visits[:0], visits...)
	}
	r.vecs[slot].refs++
	return uint32(slot)
}

// Collector accumulates completed requests' visit counts. Cap bounds retained
// traces per API (oldest evicted first); 0 means unbounded. It retains a
// trace's visit counts, not its spans: a reader that wants those observes the
// traces as they are produced (cluster.Cluster.OnTrace) and keeps them.
type Collector struct {
	Cap   int
	svcs  []string
	byAPI map[string]*ring
}

// NewCollector returns a collector of visit vectors over services, retaining
// at most cap traces per API (0 = unbounded).
func NewCollector(cap int, services []string) *Collector {
	return &Collector{Cap: cap, svcs: services, byAPI: make(map[string]*ring)}
}

// Collect counts one completed trace of api that visited services[i]
// visits[i] times. visits stays the caller's.
func (c *Collector) Collect(api string, visits []int32) {
	if len(visits) != len(c.svcs) {
		panic(fmt.Sprintf("trace: %d visit counts for %d services", len(visits), len(c.svcs)))
	}
	r := c.byAPI[api]
	if r == nil {
		r = &ring{}
		c.byAPI[api] = r
	}
	if c.Cap > 0 && r.n == c.Cap {
		r.pop() // first, so that the table never has more vectors than Cap
	}
	r.push(visits)
}

// VisitProfile returns, for each service touched by a retained trace of api,
// the q-quantile of per-trace visit counts. The paper chooses the 90th
// percentile of request histories to represent an API's behaviour (§3.3):
// "from the history 90%-ile samples are chosen". The Workload Analyzer calls
// this every solve tick over the whole retained history, so it reads the
// table of distinct visit vectors and their reference counts rather than the
// traces. The profile is written into out, cleared first (a new map when
// out is nil), so a caller that keeps one map per API refills it every tick;
// with no retained trace of api it returns nil and leaves out as it was.
func (c *Collector) VisitProfile(api string, q float64, out map[string]float64) map[string]float64 {
	r := c.byAPI[api]
	if r == nil || r.n == 0 {
		return nil
	}
	// Nearest rank, as metrics.Window.Quantile defines it: the ⌈q·n⌉-th
	// smallest count, the first at q = 0.
	rank := min(max(int(math.Ceil(q*float64(r.n))), 1), r.n)
	if out == nil {
		out = make(map[string]float64, len(c.svcs))
	}
	clear(out)
	for j, svc := range c.svcs {
		// traces[n] retained traces visit svc n times.
		clear(r.traces)
		for _, v := range r.vecs {
			n := int(v.visits[j])
			for len(r.traces) <= n {
				r.traces = append(r.traces, 0)
			}
			r.traces[n] += v.refs
		}
		if r.traces[0] == r.n {
			continue // no retained trace visits it
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
