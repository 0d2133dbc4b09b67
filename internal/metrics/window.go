// Package metrics provides the monitoring substrate GRAF consumes: time
// series, sliding latency windows with percentile queries, and CPU
// usage/utilization accounting. It plays the role Prometheus, cAdvisor and
// Linkerd play in the paper's deployment (§3.2): the state collector samples
// these stores instead of scraping real exporters.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// timed is one timestamped observation.
type timed struct {
	at float64
	v  float64
}

// chunkLen is the number of observations per chunk (4 KB of timed).
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
)

type chunk [chunkLen]timed

// chunkPool holds the chunks windows have handed back, for whichever window
// fills its tail next. A sync.Pool rather than a free list: chunks nobody
// takes go back to the heap within two garbage collections.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Window retains timestamped observations and answers queries over a
// trailing interval, e.g. "p99 latency over the last 10 seconds". This is
// the primitive behind both the paper's 10-second sample-collection windows
// (§5, Sample Collection) and the autoscalers' utilization windows.
//
// Observations live in a list of fixed-size chunks. A window keeps what its
// look-back covers — everything, until SetLookback says otherwise. When the
// tail chunk fills, Add takes the head chunks whose observations are all
// older than the newest minus the look-back: it recycles one as the new tail
// and hands the rest to a pool shared by all windows, from which it takes the
// new tail when there is none. A window therefore holds what its look-back
// held when its tail last filled plus at most two chunks, and a window whose
// rate falls feeds the windows whose rate rises; one that receives no
// observations keeps what it holds. A query that reaches back past those
// chunks panics: its answer would silently miss observations.
// At look-back 0 — a signal no reader declared — Add only counts and dates the
// observation (Len and LastAt answer as ever), and every interval query panics.
type Window struct {
	name   string   // what the window records, for the panic of a read past its look-back
	chunks []*chunk // oldest first
	off    int      // position in chunks[0] of the oldest retained observation
	n      int      // retained observations
	total  int      // observations ever added

	lookback float64 // seconds behind the newest observation that readers reach
	floor    float64 // newest timestamp the look-back dropped; -Inf while none

	scratch []float64 // Quantile's heap
}

// NewWindow returns an empty window, named for what it records, that keeps
// every observation.
func NewWindow(name string) *Window {
	return &Window{name: name, lookback: math.Inf(1), floor: math.Inf(-1)}
}

// SetLookback declares that no query will reach further than seconds behind
// the newest observation, or with 0 no query at all. It takes effect with the
// next Add: what a shorter look-back already dropped stays dropped.
func (w *Window) SetLookback(seconds float64) { w.lookback = seconds }

// Lookback returns the look-back last set; +Inf for a window that keeps everything.
func (w *Window) Lookback() float64 { return w.lookback }

// at returns the i-th oldest retained observation.
func (w *Window) at(i int) *timed {
	pos := w.off + i
	return &w.chunks[pos>>chunkShift][pos&(chunkLen-1)]
}

// Add records observation v at time at. Observations must be added in
// nondecreasing time order (the simulator guarantees this).
func (w *Window) Add(at, v float64) {
	w.total++
	if w.lookback == 0 {
		w.release(len(w.chunks))
		w.chunks, w.scratch, w.off, w.n, w.floor = nil, nil, 0, 0, at
		return
	}
	if w.off+w.n == len(w.chunks)*chunkLen {
		w.grow(at)
	}
	*w.at(w.n) = timed{at, v}
	w.n++
}

// grow makes room behind a full tail chunk for observations from time now
// on. Of the head chunks the look-back has passed all of, it hands all but
// one back to the pool and moves that one to the tail; with none passed it
// takes the tail from the pool. A window at a steady rate thus recycles its
// own chunk and leaves the pool alone, which matters because a sync.Pool may
// drop what it is given (a quarter of it under the race detector): through
// the pool, a steady window would allocate.
func (w *Window) grow(now float64) {
	passed := 0
	for passed < len(w.chunks) && w.chunks[passed][chunkLen-1].at < now-w.lookback {
		passed++
	}
	if passed == 0 {
		w.chunks = append(w.chunks, chunkPool.Get().(*chunk))
		return
	}
	w.floor = w.chunks[passed-1][chunkLen-1].at
	w.n -= passed<<chunkShift - w.off
	w.off = 0
	w.release(passed - 1)
	head := w.chunks[0]
	copy(w.chunks, w.chunks[1:])
	w.chunks[len(w.chunks)-1] = head
}

// release hands the k oldest chunks back to the pool.
func (w *Window) release(k int) {
	for _, c := range w.chunks[:k] {
		chunkPool.Put(c)
	}
	kept := copy(w.chunks, w.chunks[k:])
	clear(w.chunks[kept:])
	w.chunks = w.chunks[:kept]
}

// Trim discards observations strictly older than before, handing back the
// chunks they filled.
func (w *Window) Trim(before float64) {
	i := sort.Search(w.n, func(i int) bool { return w.at(i).at >= before })
	w.off += i
	w.n -= i
	if drop := w.off >> chunkShift; drop > 0 {
		w.release(drop)
		w.off -= drop << chunkShift
	}
}

// LastAt returns the timestamp of the most recent observation and whether
// the window holds any — at look-back 0, whether it has counted any.
func (w *Window) LastAt() (float64, bool) {
	if w.n > 0 {
		return w.at(w.n - 1).at, true
	}
	if w.lookback == 0 && w.total > 0 {
		return w.floor, true
	}
	return 0, false
}

// bounds returns the index range [lo, hi) of the observations with
// timestamp in [from, to]. It panics when from reaches observations the
// look-back dropped — a reader that declared too short a look-back — and on
// any read at look-back 0, whose reader declared none.
func (w *Window) bounds(from, to float64) (lo, hi int) {
	if w.lookback == 0 || from <= w.floor && !math.IsInf(w.floor, -1) {
		panic(fmt.Sprintf("metrics: %s window read from t=%v, but a look-back of %v s was declared (0: by no reader) and observations up to t=%v are gone",
			w.name, from, w.lookback, w.floor))
	}
	lo = sort.Search(w.n, func(i int) bool { return w.at(i).at >= from })
	hi = sort.Search(w.n, func(i int) bool { return w.at(i).at > to })
	return lo, hi
}

// appendValues appends the values of observations [lo, hi) to dst.
func (w *Window) appendValues(dst []float64, lo, hi int) []float64 {
	for i := lo; i < hi; i++ {
		dst = append(dst, w.at(i).v)
	}
	return dst
}

// Since returns the observations with timestamp in [from, to].
func (w *Window) Since(from, to float64) []float64 {
	lo, hi := w.bounds(from, to)
	return w.appendValues(make([]float64, 0, hi-lo), lo, hi)
}

// Quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of observations
// in [from, to] — the ⌈q·n⌉-th smallest of their n values, the first at q =
// 0 — or 0 when the interval is empty. This is how the paper reads tail
// latency: "picking percentile rank in the collected latency samples"
// (§3.2). The k-th smallest is also the (n−k+1)-th largest, so Quantile
// reads the interval once through a heap of the min(k, n−k+1) values nearest
// that end, in a scratch slice the window keeps: a repeated query allocates
// nothing, and a p99 query holds one value per hundred it reads.
func (w *Window) Quantile(q, from, to float64) float64 {
	lo, hi := w.bounds(from, to)
	if lo == hi {
		return 0
	}
	return w.heapSelect(lo, hi, nearestRank(q, hi-lo))
}

// heapSelect returns the k-th smallest value of observations [lo, hi): the
// largest of the k smallest when k ≤ n−k+1, kept in a max-heap of k values,
// and otherwise the smallest of the n−k+1 largest, kept in the same heap as
// their negations (negation is exact, so the answer is an observed value
// bit for bit).
func (w *Window) heapSelect(lo, hi, k int) float64 {
	m, sign := k, 1.0
	if hi-lo-k+1 < k {
		m, sign = hi-lo-k+1, -1.0
	}
	h := w.scratch[:0]
	for i := lo; i < lo+m; i++ {
		h = append(h, sign*w.at(i).v)
	}
	for i := m/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := lo + m; i < hi; i++ {
		if v := sign * w.at(i).v; v < h[0] {
			h[0] = v
			siftDown(h, 0)
		}
	}
	w.scratch = h
	return sign * h[0]
}

// siftDown restores the max-heap order of h below position i.
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// nearestRank returns the 1-based rank of the q-quantile among n ≥ 1 sorted
// values.
func nearestRank(q float64, n int) int {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// Quantile returns the nearest-rank q-quantile of xs, as Window.Quantile
// defines it, or 0 when xs is empty. It leaves xs in its order.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[nearestRank(q, len(xs))-1]
}

// Median returns the middle value of xs, the mean of the middle two when
// their number is even, or 0 when xs is empty. It leaves xs in its order.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Sum returns the sum (in time order) and the number of the observations in
// [from, to], reading them in place.
func (w *Window) Sum(from, to float64) (sum float64, n int) {
	lo, hi := w.bounds(from, to)
	for i := lo; i < hi; i++ {
		sum += w.at(i).v
	}
	return sum, hi - lo
}

// Mean returns the mean of observations in [from, to], or 0 when empty.
func (w *Window) Mean(from, to float64) float64 {
	sum, n := w.Sum(from, to)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Count returns the number of observations in [from, to].
func (w *Window) Count(from, to float64) int {
	lo, hi := w.bounds(from, to)
	return hi - lo
}

// Len returns the number of observations ever added — those a look-back or
// Trim has since dropped included, so it counts events (requests completed,
// arrivals) however little of them the window still holds.
func (w *Window) Len() int { return w.total }

// Retained returns the number of observations the window still holds.
func (w *Window) Retained() int { return w.n }

// Series is a timestamped series, appended to in time order, used to record
// experiment outputs (instance counts over time, perceived workload, …)
// exactly as the paper plots them.
type Series struct {
	T []float64
	V []float64
}

// Add appends point (t, v).
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// Trim drops the points before the last one at or before t, the one that
// says what the series holds at t: At and Mean answer as they did for every
// time from t on.
func (s *Series) Trim(t float64) {
	i := sort.SearchFloat64s(s.T, t)
	if i == len(s.T) || s.T[i] > t {
		i--
	}
	if i > 0 {
		s.T = append(s.T[:0], s.T[i:]...)
		s.V = append(s.V[:0], s.V[i:]...)
	}
}

// At returns the value at the latest point with timestamp ≤ t (step
// interpolation), or 0 before the first point.
func (s *Series) At(t float64) float64 {
	i := sort.SearchFloat64s(s.T, t)
	if i < len(s.T) && s.T[i] == t {
		return s.V[i]
	}
	if i == 0 {
		return 0
	}
	return s.V[i-1]
}

// Mean returns the time-weighted mean of the step function over [from, to].
// Before the first point the series is treated as holding its first value.
func (s *Series) Mean(from, to float64) float64 {
	if len(s.T) == 0 || to <= from {
		return 0
	}
	total := 0.0
	prevT, prevV := from, s.At(from)
	if prevV == 0 && from < s.T[0] {
		prevV = s.V[0]
	}
	for i := sort.SearchFloat64s(s.T, from); i < len(s.T) && s.T[i] < to; i++ {
		if t := s.T[i]; t > from {
			total += float64((t - prevT) * prevV)
			prevT, prevV = t, s.V[i]
		}
	}
	total += float64((to - prevT) * prevV)
	return total / (to - from)
}
