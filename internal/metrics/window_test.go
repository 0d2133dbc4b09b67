package metrics

import (
	"math/rand"
	"sort"
	"testing"
)

// sliceWindow is the reference the chunked Window must agree with: every
// observation in one slice, trimmed by copying down.
type sliceWindow struct{ buf []timed }

func (w *sliceWindow) add(at, v float64) { w.buf = append(w.buf, timed{at, v}) }

func (w *sliceWindow) trim(before float64) {
	i := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].at >= before })
	w.buf = append(w.buf[:0], w.buf[i:]...)
}

func (w *sliceWindow) since(from, to float64) []float64 {
	lo := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].at >= from })
	hi := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].at > to })
	out := make([]float64, 0, hi-lo)
	for _, t := range w.buf[lo:hi] {
		out = append(out, t.v)
	}
	return out
}

// Random add/trim/query streams: bursts long enough to cross several chunk
// boundaries, repeated timestamps, trims that land inside a chunk, on a
// boundary, past the end and before the start.
func TestWindowMatchesSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, ref := NewWindow(), &sliceWindow{}
		now := 0.0
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				for n := rng.Intn(3 * chunkLen); n > 0; n-- {
					if rng.Intn(4) > 0 {
						now += rng.Float64()
					}
					v := rng.NormFloat64()
					w.Add(now, v)
					ref.add(now, v)
				}
			case 2:
				before := now * (rng.Float64()*1.2 - 0.1)
				if rng.Intn(5) == 0 && len(ref.buf) > 0 {
					before = ref.buf[rng.Intn(len(ref.buf))].at // an exact timestamp
				}
				w.Trim(before)
				ref.trim(before)
			case 3:
				w.Trim(now + 1) // empty it; the next Add must still work
				ref.trim(now + 1)
			}

			if w.Len() != len(ref.buf) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, w.Len(), len(ref.buf))
			}
			at, ok := w.LastAt()
			if ok != (len(ref.buf) > 0) || (ok && at != ref.buf[len(ref.buf)-1].at) {
				t.Fatalf("seed %d step %d: LastAt %v %v", seed, step, at, ok)
			}
			for k := 0; k < 4; k++ {
				from := now * (rng.Float64()*1.2 - 0.1)
				to := from + now*rng.Float64()
				want := ref.since(from, to)
				got := w.Since(from, to)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: Since(%v,%v) has %d values, want %d", seed, step, from, to, len(got), len(want))
				}
				wantSum := 0.0
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: Since(%v,%v)[%d] = %v, want %v", seed, step, from, to, i, got[i], want[i])
					}
					wantSum += want[i]
				}
				if n := w.Count(from, to); n != len(want) {
					t.Fatalf("seed %d step %d: Count %d, want %d", seed, step, n, len(want))
				}
				if sum, n := w.Sum(from, to); sum != wantSum || n != len(want) {
					t.Fatalf("seed %d step %d: Sum %v/%d, want %v/%d", seed, step, sum, n, wantSum, len(want))
				}
				wantMean, wantQ := 0.0, 0.0
				if len(want) > 0 {
					wantMean = wantSum / float64(len(want))
					d := Digest{samples: want}
					wantQ = d.Quantile(0.9)
				}
				if m := w.Mean(from, to); m != wantMean {
					t.Fatalf("seed %d step %d: Mean %v, want %v", seed, step, m, wantMean)
				}
				if q := w.Quantile(0.9, from, to); q != wantQ {
					t.Fatalf("seed %d step %d: Quantile %v, want %v", seed, step, q, wantQ)
				}
			}
		}
	}
}

// Appending to a window allocates one chunk per chunkLen observations (and,
// rarely, a longer slice of chunk pointers); counting or summing a range
// allocates nothing.
func TestWindowAllocations(t *testing.T) {
	w := NewWindow()
	at := 0.0
	perChunk := testing.AllocsPerRun(50, func() {
		for i := 0; i < chunkLen; i++ {
			at++
			w.Add(at, 1)
		}
	})
	if perChunk > 1 {
		t.Errorf("%d Adds allocate %v objects, want 1 (the chunk)", chunkLen, perChunk)
	}
	if n := testing.AllocsPerRun(100, func() {
		w.Count(100, at-100)
		w.Sum(100, at-100)
		w.Mean(100, at-100)
	}); n != 0 {
		t.Errorf("Count+Sum+Mean allocate %v objects, want 0", n)
	}
}
