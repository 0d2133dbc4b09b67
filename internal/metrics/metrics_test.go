package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The four TestDigest* and TestWindowMatchesDigest tests keep the names they
// had when a sorted-sample Digest type answered quantiles; its answer is now
// the slice helper Quantile's, and they check that helper the same way.

func TestDigestQuantileExact(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestDigestEmpty(t *testing.T) {
	w := NewWindow("")
	if Quantile(nil, 0.99) != 0 || Median(nil) != 0 || w.Quantile(0.99, 0, 1) != 0 || w.Mean(0, 1) != 0 {
		t.Error("empty input must return 0 for all queries")
	}
}

// Property: Quantile is monotone in q and bracketed by min/max of samples.
func TestDigestQuantileProperty(t *testing.T) {
	f := func(vals []float64) bool {
		xs := make([]float64, 0, len(vals))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return Quantile(xs, 0) == lo && Quantile(xs, 1) == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: window quantile equals the slice helper's over the same values.
func TestWindowMatchesDigest(t *testing.T) {
	f := func(raw []uint16) bool {
		w := NewWindow("")
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			w.Add(float64(i), xs[i])
		}
		if len(raw) == 0 {
			return true
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if w.Quantile(q, 0, float64(len(raw))) != Quantile(xs, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestWindowQueries(t *testing.T) {
	w := NewWindow("")
	for i := 0; i < 100; i++ {
		w.Add(float64(i), float64(i))
	}
	if got := w.Count(10, 19); got != 10 {
		t.Errorf("Count(10,19) = %d, want 10", got)
	}
	if got := w.Mean(0, 99); got != 49.5 {
		t.Errorf("Mean = %v, want 49.5", got)
	}
	if got := w.Quantile(1, 0, 49); got != 49 {
		t.Errorf("Quantile(1, 0, 49) = %v, want 49", got)
	}
	if got := w.Quantile(0.5, 90, 200); got != 94 {
		t.Errorf("median of [90..99] = %v, want 94", got)
	}
}

// The slice helpers answer on empty, odd, even and tied inputs and leave
// their input in its order.
func TestSliceQuantileAndMedian(t *testing.T) {
	for _, c := range []struct {
		name         string
		xs           []float64
		q            float64
		wantQ, wantM float64
	}{
		{"empty", nil, 0.5, 0, 0},
		{"one", []float64{7}, 0.99, 7, 7},
		{"odd", []float64{5, 1, 4, 2, 3}, 0.5, 3, 3},
		{"odd q=0", []float64{5, 1, 4, 2, 3}, 0, 1, 3},
		{"odd q=1", []float64{5, 1, 4, 2, 3}, 1, 5, 3},
		{"even", []float64{4, 1, 3, 2}, 0.5, 2, 2.5},
		{"even q=0.75", []float64{4, 1, 3, 2}, 0.75, 3, 2.5},
		{"tied", []float64{2, 9, 2, 2, 9, 2}, 0.9, 9, 2},
		{"tied even middle", []float64{1, 3, 3, 1}, 0.5, 1, 2},
	} {
		in := append([]float64(nil), c.xs...)
		if got := Quantile(in, c.q); got != c.wantQ {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.wantQ)
		}
		if got := Median(in); got != c.wantM {
			t.Errorf("%s: Median(%v) = %v, want %v", c.name, c.xs, got, c.wantM)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("%s: input reordered to %v", c.name, in)
			}
		}
	}
}

func TestWindowTrim(t *testing.T) {
	w := NewWindow("")
	for i := 0; i < 10; i++ {
		w.Add(float64(i), 1)
	}
	w.Trim(5)
	if w.Retained() != 5 || w.Len() != 10 {
		t.Errorf("after Trim(5), Retained = %d and Len = %d, want 5 of 10", w.Retained(), w.Len())
	}
	if got := w.Count(0, 100); got != 5 {
		t.Errorf("Count after trim = %d, want 5", got)
	}
}

func TestWindowEmptyInterval(t *testing.T) {
	w := NewWindow("")
	w.Add(1, 10)
	if w.Quantile(0.99, 5, 6) != 0 || w.Mean(5, 6) != 0 {
		t.Error("queries over empty interval must return 0")
	}
}

func TestSeriesAt(t *testing.T) {
	s := new(Series)
	s.Add(1, 10)
	s.Add(3, 30)
	if s.At(0) != 0 {
		t.Errorf("At(0) = %v, want 0", s.At(0))
	}
	if s.At(1) != 10 || s.At(2) != 10 || s.At(3) != 30 || s.At(99) != 30 {
		t.Errorf("step lookup wrong: %v %v %v %v", s.At(1), s.At(2), s.At(3), s.At(99))
	}
}

func TestSeriesMean(t *testing.T) {
	s := new(Series)
	s.Add(0, 10)
	s.Add(10, 20)
	// 10 for t∈[0,10), 20 for t∈[10,20) → mean over [0,20) = 15.
	if got := s.Mean(0, 20); got != 15 {
		t.Errorf("Mean(0,20) = %v, want 15", got)
	}
	if got := s.Mean(0, 10); got != 10 {
		t.Errorf("Mean(0,10) = %v, want 10", got)
	}
}

// seriesMeanReference is Series.Mean as it was first written: a walk over
// every point from the first.
func seriesMeanReference(s *Series, from, to float64) float64 {
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

// A series trimmed to a look-back at every scale event answers Mean and At,
// for any interval inside the look-back, with the bits an untrimmed series
// walked from its first point gives — and holds only what the look-back
// covers plus the one point that says what it held when the look-back began.
func TestTrimmedSeriesMatchesUntrimmedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, lookback := range []float64{5, 30, 120} {
		kept, all := new(Series), new(Series)
		now := 0.0
		for event := 0; event < 2000; event++ {
			switch rng.Intn(4) {
			case 0: // a batch of instances coming ready at one instant, or close
				now += float64(rng.Intn(2)) * rng.Float64()
			case 1: // a long quiet spell
				now += lookback * 3 * rng.Float64()
			default:
				now += 4 * rng.Float64()
			}
			v := float64(rng.Intn(9))
			kept.Add(now, v)
			all.Add(now, v)
			kept.Trim(now - lookback)

			read := now + lookback*rng.Float64()/2 // a tick reads some time after the last event
			for try := 0; try < 4; try++ {
				from := read - lookback*rng.Float64()
				if from < now-lookback {
					from = now - lookback
				}
				to := from + (read-from)*rng.Float64()
				if try == 0 {
					from, to = math.Max(now-lookback, 0), read // the whole look-back, as Utilization asks
				}
				got, want := kept.Mean(from, to), seriesMeanReference(all, from, to)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("look-back %v, event %d: trimmed Mean(%v, %v) = %v, untrimmed reference = %v", lookback, event, from, to, got, want)
				}
				if got, want := kept.At(from), all.At(from); got != want {
					t.Fatalf("look-back %v, event %d: trimmed At(%v) = %v, untrimmed = %v", lookback, event, from, got, want)
				}
			}
			if n := kept.Len(); n > 1 && kept.T[1] <= now-lookback {
				t.Fatalf("look-back %v, event %d: %d points kept, two of them at or before t=%v", lookback, event, n, now-lookback)
			}
		}
		if kept.Len() >= all.Len()/4 {
			t.Errorf("look-back %v: trimmed series holds %d of %d points", lookback, kept.Len(), all.Len())
		}
	}
}
