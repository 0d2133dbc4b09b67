package metrics

import "sort"

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

// Window retains timestamped observations and answers queries over a
// trailing interval, e.g. "p99 latency over the last 10 seconds". This is
// the primitive behind both the paper's 10-second sample-collection windows
// (§5, Sample Collection) and the autoscalers' utilization windows.
//
// Observations live in fixed-size chunks allocated as the window fills, so
// growth never copies what is already recorded and Trim frees whole chunks.
type Window struct {
	chunks []*chunk
	off    int // position in chunks[0] of the oldest retained observation
	n      int // retained observations
}

// NewWindow returns an empty window.
func NewWindow() *Window { return &Window{} }

// at returns the i-th oldest retained observation.
func (w *Window) at(i int) *timed {
	pos := w.off + i
	return &w.chunks[pos>>chunkShift][pos&(chunkLen-1)]
}

// Add records observation v at time at. Observations must be added in
// nondecreasing time order (the simulator guarantees this).
func (w *Window) Add(at, v float64) {
	if w.off+w.n == len(w.chunks)*chunkLen {
		w.chunks = append(w.chunks, new(chunk))
	}
	*w.at(w.n) = timed{at, v}
	w.n++
}

// Trim discards observations strictly older than before. Call periodically
// to bound memory in long simulations.
func (w *Window) Trim(before float64) {
	i := sort.Search(w.n, func(i int) bool { return w.at(i).at >= before })
	w.off += i
	w.n -= i
	if drop := w.off >> chunkShift; drop > 0 {
		kept := copy(w.chunks, w.chunks[drop:])
		clear(w.chunks[kept:])
		w.chunks = w.chunks[:kept]
		w.off -= drop << chunkShift
	}
}

// LastAt returns the timestamp of the most recent observation and whether
// the window holds any.
func (w *Window) LastAt() (float64, bool) {
	if w.n == 0 {
		return 0, false
	}
	return w.at(w.n - 1).at, true
}

// bounds returns the index range [lo, hi) of the observations with
// timestamp in [from, to].
func (w *Window) bounds(from, to float64) (lo, hi int) {
	lo = sort.Search(w.n, func(i int) bool { return w.at(i).at >= from })
	hi = sort.Search(w.n, func(i int) bool { return w.at(i).at > to })
	return lo, hi
}

// Since returns the observations with timestamp in [from, to].
func (w *Window) Since(from, to float64) []float64 {
	lo, hi := w.bounds(from, to)
	out := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, w.at(i).v)
	}
	return out
}

// Quantile returns the q-quantile of observations in [from, to], or 0 when
// the interval is empty.
func (w *Window) Quantile(q, from, to float64) float64 {
	vals := w.Since(from, to)
	if len(vals) == 0 {
		return 0
	}
	d := Digest{samples: vals}
	return d.Quantile(q)
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

// Len returns the total number of retained observations.
func (w *Window) Len() int { return w.n }

// Series is an append-only timestamped series used to record experiment
// outputs (instance counts over time, perceived workload, …) exactly as the
// paper plots them.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends point (t, v).
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

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
	for i, t := range s.T {
		if t <= from {
			continue
		}
		if t >= to {
			break
		}
		total += (t - prevT) * prevV
		prevT, prevV = t, s.V[i]
	}
	total += (to - prevT) * prevV
	return total / (to - from)
}
