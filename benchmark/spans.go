package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark from outside the program. Times are nanoseconds since the
// recorder was created; Parent is the ID of the enclosing span (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Round   int    `json:"round"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so the untraced repetitions run the same code with tracing off.
//
// begin/end nest on a stack and belong to the driver goroutine; leaf may be
// called from any goroutine (the HTTP handler wrapper, a fleet worker) and
// parents the span under whatever the driver has open at that moment — the
// driver is closed-loop, so that is the call that caused it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int
	round int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a span begun and not yet ended.
type openSpan struct {
	r     *recorder
	id    int
	name  string
	start time.Time
}

func (r *recorder) setRound(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round = i
	r.mu.Unlock()
}

func (r *recorder) begin(name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// IDs are positions in r.spans; the slot is filled in by end.
	r.spans = append(r.spans, span{})
	id := len(r.spans)
	r.spans[id-1] = span{ID: id, Parent: r.top(), Name: name, Round: r.round}
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return &openSpan{r: r, id: id, name: name, start: time.Now()}
}

func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	r := o.r
	r.mu.Lock()
	s := &r.spans[o.id-1]
	s.StartNS, s.EndNS = o.start.Sub(r.epoch).Nanoseconds(), now.Sub(r.epoch).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
	return now.Sub(o.start)
}

func (r *recorder) leaf(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: r.top(), Name: name, Round: r.round,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
}

// top returns the innermost open span's ID; r.mu must be held.
func (r *recorder) top() int {
	if len(r.stack) == 0 {
		return 0
	}
	return r.stack[len(r.stack)-1]
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover. Children may overlap
// one another (two shard handlers serve one router round in parallel), so the
// covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.EndNS - s.StartNS) - covered
	}
	return self
}

// totalTimes returns the summed duration per span name.
func totalTimes(spans []span) map[string]int64 {
	tot := map[string]int64{}
	for _, s := range spans {
		tot[s.Name] += s.EndNS - s.StartNS
	}
	return tot
}

// durationsMS returns every duration of the named spans, in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}
