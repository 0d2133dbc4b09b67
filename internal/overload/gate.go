package overload

import (
	"fmt"
	"sync"
)

// Priority classes endpoints for admission control. Lower values shed
// later: Critical work (health probes, checkpoints, the recovery paths) is
// never shed, High work (ticks) only at full capacity, Low work (status
// reads) first, at half capacity — so an overloaded shard keeps answering
// heartbeats and making decisions while it sheds the observers.
type Priority int

const (
	PriCritical Priority = iota
	PriHigh
	PriLow

	priCount
)

// ErrOverloaded is the typed shed verdict: the caller should back off for
// RetryAfterMS and try again — it is backpressure, not failure, and must
// not count as a transport failure or trigger failure investigation.
type ErrOverloaded struct {
	Inflight, Max int
	RetryAfterMS  int
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("overloaded: %d/%d inflight, retry after %d ms", e.Inflight, e.Max, e.RetryAfterMS)
}

// GateStats is a snapshot of the gate's counters.
type GateStats struct {
	Inflight int
	Admitted [3]int64 // by Priority
	Shed     [3]int64 // by Priority
}

// retryAfterMS is the backoff hint every shed verdict carries; no caller
// ever set another. The router's client waits it out in place of its 2–20
// ms jittered backoff, so a shed request is retried after roughly one tick
// of a loaded shard instead of at once, and the client's four retries span
// 200 ms of shedding before a tick counts as shed.
const retryAfterMS = 50

// Gate is a bounded-inflight admission gate with priority shedding. All
// methods are safe for concurrent use.
type Gate struct {
	mu       sync.Mutex
	max      int
	inflight int
	admitted [priCount]int64
	shed     [priCount]int64
}

// NewGate builds a gate admitting at most max non-critical requests at
// once (32 when max <= 0).
func NewGate(max int) *Gate {
	if max <= 0 {
		max = 32
	}
	return &Gate{max: max}
}

// Enter admits or sheds one request. On admission it returns a release
// func the caller must invoke exactly once when the request finishes; on
// shed it returns a *ErrOverloaded. Critical requests are always admitted
// — they still occupy an inflight slot so sustained critical load sheds
// everything else, but they can exceed max themselves.
func (g *Gate) Enter(p Priority) (func(), error) {
	if g == nil {
		return func() {}, nil
	}
	if p < PriCritical || p >= priCount {
		p = PriLow
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	limit := g.max
	if p == PriLow {
		// Reads shed at half capacity so a status-scrape storm cannot
		// starve tick admission.
		if limit = g.max / 2; limit < 1 {
			limit = 1
		}
	}
	if p != PriCritical && g.inflight >= limit {
		g.shed[p]++
		return nil, &ErrOverloaded{Inflight: g.inflight, Max: limit, RetryAfterMS: retryAfterMS}
	}
	g.inflight++
	g.admitted[p]++
	released := false
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if !released {
			released = true
			g.inflight--
		}
	}, nil
}

// Stats snapshots the gate counters.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GateStats{Inflight: g.inflight}
	copy(st.Admitted[:], g.admitted[:])
	copy(st.Shed[:], g.shed[:])
	return st
}

// TotalShed sums sheds across priorities.
func (st GateStats) TotalShed() int64 {
	var n int64
	for _, v := range st.Shed {
		n += v
	}
	return n
}
