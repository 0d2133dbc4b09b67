package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two for an even
// count). It does not modify xs; an empty slice yields 0.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// perIndexMedian combines repetitions of the same deterministic sequence:
// element i of the result is the median of element i across reps. Round i
// does bit-identical work in every repetition, so the median removes a stall
// that hit one repetition without touching the shape of the distribution —
// percentiles are taken over this combined series, never over raw rounds.
func perIndexMedian(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := make([]float64, len(reps[0]))
	col := make([]float64, len(reps))
	for i := range out {
		for r := range reps {
			col[r] = reps[r][i]
		}
		out[i] = median(col)
	}
	return out
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives (the exclusive
// method) — the same figure the acceptance check computes over ten runs.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}
