package cluster

import (
	"sort"

	"graf/internal/trace"
)

// The counters and traces the cluster's tests read and no other code does.
// They are exported, so the external cluster_test package reads them too.

// CreatedTotal returns the cumulative number of instances ever created
// (excluding the initial one per deployment).
func (c *Cluster) CreatedTotal() int { return c.createdTotal }

// FailedCalls returns how many calls exhausted their retries.
func (c *Cluster) FailedCalls() int { return c.failedCalls }

// DroppedTraces returns how many traces were lost before the collector.
func (c *Cluster) DroppedTraces() int { return c.droppedTraces }

// Recorder keeps copies of the whole traces an OnTrace observer sees, spans
// included: the last Cap per API, 0 for all.
type Recorder struct {
	Cap   int
	byAPI map[string][]trace.Trace
}

// Record copies t, which the cluster reuses once Record returns.
func (r *Recorder) Record(t *trace.Trace) {
	if r.byAPI == nil {
		r.byAPI = make(map[string][]trace.Trace)
	}
	kept := *t
	kept.Spans = append([]trace.Span(nil), t.Spans...)
	list := append(r.byAPI[t.API], kept)
	if r.Cap > 0 && len(list) > r.Cap {
		list = list[1:]
	}
	r.byAPI[t.API] = list
}

// Traces returns the recorded traces of api, oldest first.
func (r *Recorder) Traces(api string) []trace.Trace { return r.byAPI[api] }

// APIs returns the names of the APIs recorded, sorted.
func (r *Recorder) APIs() []string {
	names := make([]string, 0, len(r.byAPI))
	for k := range r.byAPI {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Visits returns how many times each service appears in t.
func Visits(t trace.Trace) map[string]int {
	m := make(map[string]int)
	for _, s := range t.Spans {
		m[s.Service]++
	}
	return m
}
