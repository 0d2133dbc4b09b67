package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sliceWindow is the reference the chunked Window must agree with: every
// observation in one slice, trimmed by copying down to what a look-back
// reaches.
type sliceWindow struct {
	buf   []timed
	added int
}

func (w *sliceWindow) add(at, v float64) {
	w.buf = append(w.buf, timed{at, v})
	w.added++
}

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

// Random add/query streams: bursts long enough to cross several chunk
// boundaries, repeated timestamps, queries before the start and past the end.
func TestWindowMatchesSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, ref := NewWindow(""), &sliceWindow{}
		now := 0.0
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 {
				for n := rng.Intn(3 * chunkLen); n > 0; n-- {
					if rng.Intn(4) > 0 {
						now += rng.Float64()
					}
					v := rng.NormFloat64()
					w.Add(now, v)
					ref.add(now, v)
				}
			}

			if w.Retained() != len(ref.buf) || w.Len() != ref.added {
				t.Fatalf("seed %d step %d: holds %d of %d, want %d of %d", seed, step, w.Retained(), w.Len(), len(ref.buf), ref.added)
			}
			at, ok := w.LastAt()
			if ok != (len(ref.buf) > 0) || (ok && at != ref.buf[len(ref.buf)-1].at) {
				t.Fatalf("seed %d step %d: LastAt %v %v", seed, step, at, ok)
			}
			for k := 0; k < 4; k++ {
				from := now * (rng.Float64()*1.2 - 0.1)
				to := from + now*rng.Float64()
				if err := sameAnswers(w, ref, 0.9, from, to); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
	}
}

// sameAnswers compares every query over [from, to] with the slice reference,
// bit for bit.
func sameAnswers(w *Window, ref *sliceWindow, q, from, to float64) error {
	want := ref.since(from, to)
	got := w.Since(from, to)
	if len(got) != len(want) {
		return fmt.Errorf("Since(%v,%v) has %d values, want %d", from, to, len(got), len(want))
	}
	wantSum := 0.0
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("Since(%v,%v)[%d] = %v, want %v", from, to, i, got[i], want[i])
		}
		wantSum += want[i]
	}
	if n := w.Count(from, to); n != len(want) {
		return fmt.Errorf("Count(%v,%v) = %d, want %d", from, to, n, len(want))
	}
	if sum, n := w.Sum(from, to); sum != wantSum || n != len(want) {
		return fmt.Errorf("Sum(%v,%v) = %v/%d, want %v/%d", from, to, sum, n, wantSum, len(want))
	}
	wantMean, wantQ := 0.0, 0.0
	if len(want) > 0 {
		wantMean = wantSum / float64(len(want))
		sorted := append([]float64(nil), want...)
		sort.Float64s(sorted)
		wantQ = sorted[max(int(math.Ceil(q*float64(len(sorted)))), 1)-1]
	}
	if m := w.Mean(from, to); m != wantMean {
		return fmt.Errorf("Mean(%v,%v) = %v, want %v", from, to, m, wantMean)
	}
	if got := w.Quantile(q, from, to); got != wantQ {
		return fmt.Errorf("Quantile(%v,%v,%v) = %v, want %v", q, from, to, got, wantQ)
	}
	return nil
}

var testQuantiles = []float64{0, 0.5, 0.9, 0.95, 0.99, 1}

// A window with a look-back answers every query that stays inside it exactly
// as one that kept everything, and holds no more chunks than the look-back
// held when its tail chunk last filled, plus two — through idle gaps and
// bursts at several rates.
func TestLookbackMatchesUnboundedReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lookback := []float64{0.3, 2, 10, 45}[rng.Intn(4)] * (0.5 + rng.Float64())
		maxRate := []float64{20, 300, 5000}[rng.Intn(3)]
		maxChunks := 0
		w, ref := NewWindow(""), &sliceWindow{}
		w.SetLookback(lookback)
		now := 0.0
		for step := 0; step < 80; step++ {
			switch rng.Intn(5) {
			case 0:
				now += lookback * 3 * rng.Float64() // idle
			default:
				slow := 1 + 4*rng.Float64()*float64(rng.Intn(2))
				for n := rng.Intn(3 * chunkLen); n > 0; n-- {
					now += (1 + slow*rng.Float64()) / maxRate
					v := float64(rng.Intn(50)) // heavy ties
					tailFull := w.n == len(w.chunks)*chunkLen
					w.Add(now, v)
					ref.add(now, v)
					if tailFull {
						held := len(ref.buf) - sort.Search(len(ref.buf), func(i int) bool { return ref.buf[i].at >= now-lookback })
						maxChunks = (held+chunkLen-1)/chunkLen + 2
					}
				}
			}
			if len(w.chunks) > maxChunks {
				t.Fatalf("seed %d step %d: %d chunks for a %.2f s look-back, want ≤ %d", seed, step, len(w.chunks), lookback, maxChunks)
			}
			if w.Len() != ref.added {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, w.Len(), ref.added)
			}
			newest, ok := w.LastAt()
			if !ok {
				continue
			}
			for k := 0; k < 6; k++ {
				from := newest - lookback*rng.Float64()
				if k == 0 {
					from = newest - lookback // the furthest a reader may reach
				}
				to := from + 1.5*lookback*rng.Float64()
				if err := sameAnswers(w, ref, testQuantiles[rng.Intn(len(testQuantiles))], from, to); err != nil {
					t.Fatalf("seed %d step %d (look-back %v): %v", seed, step, lookback, err)
				}
			}
		}
		if maxRate >= 300 && w.Retained() == ref.added {
			t.Errorf("seed %d: the look-back never dropped anything", seed)
		}
	}
}

// feed adds one observation every 1/rate seconds after from, for seconds, and
// returns the time it reached.
func feed(w *Window, from, rate, seconds float64) float64 {
	for i := 1; i <= int(rate*seconds); i++ {
		w.Add(from+float64(i)/rate, 1)
	}
	return from + seconds
}

// A window whose rate falls hands back what its busier look-back held: fed at
// 2000/s and then at 100/s for twice its look-back, it holds no more than the
// look-back at 100/s plus two chunks.
func TestWindowShrinksWhenItsRateFalls(t *testing.T) {
	const lookback = 10
	w := NewWindow("")
	w.SetLookback(lookback)
	now := feed(w, 0, 2000, 2*lookback)
	peak := len(w.chunks)
	feed(w, now, 100, 2*lookback)
	if want := int(math.Ceil(lookback*100.0/chunkLen)) + 2; len(w.chunks) > want {
		t.Errorf("after falling from 2000/s to 100/s: %d chunks (%d at 2000/s), want ≤ %d", len(w.chunks), peak, want)
	}
	if got := w.Count(now+lookback, now+2*lookback); got != 100*lookback+1 { // both ends included
		t.Errorf("Count over the last look-back = %d, want %d", got, 100*lookback+1)
	}
}

// Windows on several goroutines share the chunk pool while each owns its
// windows: through look-backs of 0.3–45 s, bursts and idle gaps, every
// window answers as its slice reference after every burst. A chunk handed to
// two live windows at once shows up here as a wrong answer, or under -race as
// a data race.
func TestWindowsShareThePoolAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := int64(1); g <= 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			type pair struct {
				w        *Window
				ref      *sliceWindow
				lookback float64
			}
			pairs := make([]pair, 3)
			for i := range pairs {
				pairs[i] = pair{NewWindow(""), &sliceWindow{}, 0.3 + 44.7*rng.Float64()}
				pairs[i].w.SetLookback(pairs[i].lookback)
			}
			now := 0.0
			for step := 0; step < 150; step++ {
				p := pairs[rng.Intn(len(pairs))]
				if rng.Intn(4) == 0 {
					now += 3 * p.lookback * rng.Float64() // idle
					continue
				}
				rate := []float64{20, 300, 5000}[rng.Intn(3)]
				for n := rng.Intn(3 * chunkLen); n > 0; n-- {
					now += rng.Float64() / rate
					v := rng.NormFloat64()
					p.w.Add(now, v)
					p.ref.add(now, v)
				}
				newest, ok := p.w.LastAt()
				if !ok {
					continue
				}
				from := newest - p.lookback*rng.Float64()
				if err := sameAnswers(p.w, p.ref, 0.99, from, newest); err != nil {
					t.Errorf("goroutine %d step %d (look-back %.2f s): %v", seed, step, p.lookback, err)
					return
				}
				p.ref.trim(newest - p.lookback) // nothing reads further back
			}
		}(g)
	}
	wg.Wait()
}

// Selecting the order statistic returns what sorting and indexing returns,
// at every rank and with most values tied.
func TestQuantileMatchesSortedNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 100, 257, 1000, 5000} {
		for _, distinct := range []int{1, 2, 7, n} {
			w := NewWindow("")
			sorted := make([]float64, n)
			for i := range sorted {
				sorted[i] = float64(rng.Intn(distinct)) * 0.125
				w.Add(float64(i), sorted[i])
			}
			sort.Float64s(sorted)
			for _, q := range testQuantiles {
				rank := max(int(math.Ceil(q*float64(n))), 1)
				if got := w.Quantile(q, 0, float64(n)); got != sorted[rank-1] {
					t.Fatalf("n=%d distinct=%d: Quantile(%v) = %v, sorted[%d] = %v", n, distinct, q, got, rank-1, sorted[rank-1])
				}
			}
			if n <= 257 {
				lo, hi := w.bounds(0, float64(n))
				for k := 0; k < n; k++ {
					if got := w.heapSelect(lo, hi, k+1); got != sorted[k] {
						t.Fatalf("n=%d distinct=%d: heapSelect(%d) = %v, want %v", n, distinct, k+1, got, sorted[k])
					}
				}
			}
		}
	}
}

// A read that reaches what the look-back dropped panics and names the
// look-back; declaring a longer one afterwards keeps more from then on but
// does not bring anything back.
func TestReadPastLookbackPanics(t *testing.T) {
	w := NewWindow("")
	w.SetLookback(10)
	now := 0.0
	run := func(seconds float64) {
		for end := now + seconds; now < end; now += 0.01 {
			w.Add(now, 1)
		}
	}
	panics := func(from float64) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		w.Count(from, now)
		return ""
	}
	run(100)
	if got := w.Count(now-10, now); got < 999 || got > 1001 {
		t.Errorf("Count over the declared look-back = %d, want ≈1000", got)
	}
	if msg := panics(now - 60); !strings.Contains(msg, "look-back of 10 s") {
		t.Errorf("reading 60 s back under a 10 s look-back: panic %q, want one naming the look-back", msg)
	}
	w.SetLookback(50)
	if msg := panics(now - 40); msg == "" {
		t.Error("a longer look-back declared late answered from observations that were already gone")
	}
	run(60)
	if msg := panics(now - 50); msg != "" {
		t.Errorf("50 s back, 60 s after declaring 50 s: %s", msg)
	}
	if got := w.Count(now-50, now); got < 4999 || got > 5001 {
		t.Errorf("Count over the longer look-back = %d, want ≈5000", got)
	}
}

// At look-back 0 a window counts and dates what it is given and holds none of
// it — what it held before included, from the next Add on; every interval
// query panics, naming the window, whatever interval it asks for; and raising
// the look-back afterwards retains from then on, with what came before gone.
func TestLookbackZeroKeepsCountAndLastAtOnly(t *testing.T) {
	w := NewWindow("self latency")
	if _, ok := w.LastAt(); ok {
		t.Error("an empty window reports a last observation")
	}
	for i := 0; i < 3*chunkLen; i++ {
		w.Add(float64(i), 1)
	}
	w.SetLookback(0)
	if w.Retained() != 3*chunkLen {
		t.Errorf("SetLookback(0) alone dropped observations: %d held", w.Retained())
	}
	if allocs := testing.AllocsPerRun(1000, func() { w.Add(1000, 2) }); allocs != 0 {
		t.Errorf("Add at look-back 0 allocates %v objects", allocs)
	}
	w.Add(1001.5, 2)
	if at, ok := w.LastAt(); w.Retained() != 0 || len(w.chunks) != 0 || w.Len() != 3*chunkLen+1002 || !ok || at != 1001.5 {
		t.Errorf("at look-back 0: holds %d in %d chunks, Len %d, LastAt %v %v", w.Retained(), len(w.chunks), w.Len(), at, ok)
	}
	panics := func(read func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		read()
		return ""
	}
	for name, read := range map[string]func(){
		"Quantile": func() { w.Quantile(0.99, 0, 2000) },
		"Count":    func() { w.Count(1500, 2000) }, // newer than anything it saw
		"Sum":      func() { w.Sum(1001.5, 1001.5) },
		"Mean":     func() { w.Mean(0, 1) },
		"Since":    func() { w.Since(0, 2000) },
	} {
		if msg := panics(read); !strings.Contains(msg, "self latency window") || !strings.Contains(msg, "look-back of 0 s") {
			t.Errorf("%s at look-back 0: recovered %q, want a panic naming the window and its look-back", name, msg)
		}
	}

	w.SetLookback(10)
	for i := 0; i < 5; i++ {
		w.Add(1002+float64(i), 3)
	}
	if got := w.Count(1002, 1010); got != 5 || w.Retained() != 5 {
		t.Errorf("after raising the look-back: Count %d, holds %d, want 5 and 5", got, w.Retained())
	}
	if msg := panics(func() { w.Count(1001.5, 1010) }); !strings.Contains(msg, "look-back of 10 s") {
		t.Errorf("reading back to what look-back 0 dropped: recovered %q, want a panic", msg)
	}
}

// Appending to a window that keeps everything allocates at most one chunk per
// chunkLen observations (none when the pool has one to give, and, rarely, a
// longer slice of chunk pointers); once a window with a look-back holds it,
// appending allocates nothing. Reading a
// range never allocates, quantiles included.
func TestWindowAllocations(t *testing.T) {
	w := NewWindow("")
	at := 0.0
	fill := func() {
		for i := 0; i < chunkLen; i++ {
			at++
			w.Add(at, float64(i%17))
		}
	}
	if perChunk := testing.AllocsPerRun(50, fill); perChunk > 1 {
		t.Errorf("%d Adds allocate %v objects, want 1 (the chunk)", chunkLen, perChunk)
	}
	w.SetLookback(20 * chunkLen)
	if perChunk := testing.AllocsPerRun(50, fill); perChunk != 0 {
		t.Errorf("%d Adds inside a held look-back allocate %v objects, want 0", chunkLen, perChunk)
	}
	w.Quantile(0.99, at-5000, at) // sizes the scratch
	if n := testing.AllocsPerRun(100, func() {
		w.Count(at-5000, at-100)
		w.Sum(at-5000, at-100)
		w.Mean(at-5000, at-100)
		w.Quantile(0.99, at-5000, at-100)
		w.Quantile(0.5, at-5000, at-100)
	}); n != 0 {
		t.Errorf("Count+Sum+Mean+Quantile allocate %v objects, want 0", n)
	}
}

// A tail quantile reads its interval through a heap of the values nearest
// that end, so a fresh window answering p99 and the maximum over intervals
// that grow to 20 000 observations allocates a few hundred values of scratch,
// not a copy of each interval (which regrew with every longer query).
func TestTailQuantileDoesNotCopyTheInterval(t *testing.T) {
	const n = 20000
	w := NewWindow("")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		w.Add(float64(i), rng.ExpFloat64())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := 1000.0; end <= n; end += 1000 {
		w.Quantile(0.99, 0, end)
		w.Quantile(1, 0, end)
	}
	runtime.ReadMemStats(&after)
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(8*(n/100+1))*4; got > ceiling {
		t.Errorf("20 p99 and maximum queries over up to %d observations allocated %d B, want ≤ %d B", n, got, ceiling)
	}
}
