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
)

// Digest accumulates float64 observations and answers percentile queries
// exactly (by sorting retained samples). Sample volumes in the simulator are
// modest (at most a few million per experiment), so exact retention is both
// affordable and removes approximation error from the reproduction.
//
// Digest is the exact, sample-retaining counterpart of the streaming
// P2Digest. Every paper-facing percentile (cluster latency windows, bench
// tables) uses Digest; the always-on observability histograms in
// internal/obs use P2Digest, whose memory stays O(1) under unbounded
// streams. See P2Digest for the full consumer map and the small-n agreement
// guarantee between the two.
type Digest struct {
	samples []float64
	sorted  bool
}

// NewDigest returns an empty digest with capacity hint n.
func NewDigest(n int) *Digest {
	return &Digest{samples: make([]float64, 0, n)}
}

// Add records one observation. NaN observations panic: they indicate a
// simulator bug and must not be silently folded into percentiles.
func (d *Digest) Add(v float64) {
	if math.IsNaN(v) {
		panic("metrics: NaN observation")
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of observations recorded.
func (d *Digest) Count() int { return len(d.samples) }

// Reset discards all observations but keeps the backing storage.
func (d *Digest) Reset() {
	d.samples = d.samples[:0]
	d.sorted = true
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank method
// the paper's percentile-latency measurements use ("picking percentile rank
// in the collected latency samples", §3.2). It returns 0 for an empty digest.
func (d *Digest) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	rank := nearestRank(q, len(d.samples))
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	return d.samples[rank-1]
}

// nearestRank returns the 1-based rank of the q-quantile among n ≥ 1 sorted
// samples.
func nearestRank(q float64, n int) int {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// Mean returns the arithmetic mean, or 0 when empty.
func (d *Digest) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d.samples {
		sum += v
	}
	return sum / float64(len(d.samples))
}

// Max returns the largest observation, or 0 when empty.
func (d *Digest) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	m := d.samples[0]
	for _, v := range d.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Snapshot returns a copy of the retained samples, sorted ascending.
func (d *Digest) Snapshot() []float64 {
	out := make([]float64, len(d.samples))
	copy(out, d.samples)
	sort.Float64s(out)
	return out
}
