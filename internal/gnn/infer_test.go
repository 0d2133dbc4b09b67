package gnn

import (
	"math/rand"
	"sync"
	"testing"
)

func testModel(t testing.TB, mpnn bool) *Model {
	t.Helper()
	// A small fan-in graph: 0 -> {1,2} -> 3, plus a leaf 4 with no parents.
	parents := [][]int{{}, {0}, {0}, {1, 2}, {}}
	cfg := DefaultConfig(len(parents), parents)
	cfg.UseMPNN = mpnn
	return New(cfg, rand.New(rand.NewSource(7)))
}

func randInputs(rng *rand.Rand, nodes int) (load, quota []float64) {
	load = make([]float64, nodes)
	quota = make([]float64, nodes)
	for i := range load {
		load[i] = 20 + rng.Float64()*400
		quota[i] = 100 + rng.Float64()*3000
	}
	return load, quota
}

// The scratch-based kernels must be bit-identical to the reference
// forward/backward of train_reference_test.go (with train=false): replayed
// audit logs and same-seed runs were recorded against it.
func TestInferMatchesTrainingPath(t *testing.T) {
	for _, mpnn := range []bool{true, false} {
		m := testModel(t, mpnn)
		rng := rand.New(rand.NewSource(99))
		s := m.NewScratch()
		for it := 0; it < 50; it++ {
			load, quota := randInputs(rng, m.Cfg.Nodes)
			st := m.forward(load, quota, false, nil)
			m.zeroGrad()
			_, wantDQ := m.backward(st, 1)
			m.zeroGrad()

			got, gotDQ := m.PredictGradWith(s, load, quota)
			if got != st.y {
				t.Fatalf("mpnn=%v iter %d: PredictGradWith=%v want %v", mpnn, it, got, st.y)
			}
			if p := m.PredictWith(s, load, quota); p != st.y {
				t.Fatalf("mpnn=%v iter %d: PredictWith=%v want %v", mpnn, it, p, st.y)
			}
			for i := range wantDQ {
				if gotDQ[i] != wantDQ[i] {
					t.Fatalf("mpnn=%v iter %d: dQuota[%d]=%v want %v", mpnn, it, i, gotDQ[i], wantDQ[i])
				}
			}
		}
	}
}

// Reusing one scratch across calls must give the same answers as fresh
// scratches — no state may leak between invocations.
func TestScratchReuseIsStateless(t *testing.T) {
	m := testModel(t, true)
	rng := rand.New(rand.NewSource(3))
	shared := m.NewScratch()
	for it := 0; it < 30; it++ {
		load, quota := randInputs(rng, m.Cfg.Nodes)
		fresh := m.NewScratch()
		wy, wdq := m.PredictGradWith(fresh, load, quota)
		gy, gdq := m.PredictGradWith(shared, load, quota)
		if gy != wy {
			t.Fatalf("iter %d: shared scratch y=%v fresh=%v", it, gy, wy)
		}
		for i := range wdq {
			if gdq[i] != wdq[i] {
				t.Fatalf("iter %d: shared scratch dq[%d]=%v fresh=%v", it, i, gdq[i], wdq[i])
			}
		}
	}
}

// Predict/PredictGrad must be safe to hammer from many goroutines on one
// model: the kernel may not touch gradient accumulators, tapes, or any other
// shared mutable state, and the free list the one-shot methods borrow from
// must hand each concurrent caller its own Scratch. Every result must equal,
// bit for bit, the same kernel on a private Scratch. Run with -race.
func TestConcurrentInferenceIsReadOnly(t *testing.T) {
	m := testModel(t, true)
	rng := rand.New(rand.NewSource(21))
	const inputs = 8
	loads := make([][]float64, inputs)
	quotas := make([][]float64, inputs)
	wantY := make([]float64, inputs)
	wantDQ := make([][]float64, inputs)
	ref := m.NewScratch()
	for i := range loads {
		loads[i], quotas[i] = randInputs(rng, m.Cfg.Nodes)
		wantY[i] = m.PredictWith(ref, loads[i], quotas[i])
		_, dq := m.PredictGradWith(ref, loads[i], quotas[i])
		wantDQ[i] = append([]float64(nil), dq...)
	}

	const goroutines = 8
	iters := 50
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := m.NewScratch()
			for it := 0; it < iters; it++ {
				i := (g + it) % inputs
				if g%2 == 0 {
					if y := m.PredictWith(s, loads[i], quotas[i]); y != wantY[i] {
						errs <- "concurrent PredictWith diverged"
						return
					}
					if y := m.Predict(loads[i], quotas[i]); y != wantY[i] {
						errs <- "concurrent Predict diverged"
						return
					}
					continue
				}
				y, dq := m.PredictGradWith(s, loads[i], quotas[i])
				y1, dq1 := m.PredictGrad(loads[i], quotas[i])
				if y != wantY[i] || y1 != wantY[i] {
					errs <- "concurrent PredictGrad(With) y diverged"
					return
				}
				for d := range dq {
					if dq[d] != wantDQ[i][d] || dq1[d] != wantDQ[i][d] {
						errs <- "concurrent PredictGrad(With) dq diverged"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := len(m.free); n < 1 || n > goroutines {
		t.Fatalf("free list holds %d scratches after %d concurrent callers, want 1..%d", n, goroutines, goroutines)
	}
}

// The one-shot methods borrow their Scratch from the model: after the first
// call Predict allocates nothing and PredictGrad only the gradient it
// returns, for both architectures.
func TestOneShotInferenceDoesNotAllocate(t *testing.T) {
	for _, mpnn := range []bool{true, false} {
		m := testModel(t, mpnn)
		load, quota := randInputs(rand.New(rand.NewSource(4)), m.Cfg.Nodes)
		if n := testing.AllocsPerRun(50, func() { m.Predict(load, quota) }); n != 0 {
			t.Errorf("mpnn=%v: Predict allocates %v objects per call, want 0", mpnn, n)
		}
		if n := testing.AllocsPerRun(50, func() { m.PredictGrad(load, quota) }); n > 1 {
			t.Errorf("mpnn=%v: PredictGrad allocates %v objects per call, want <= 1", mpnn, n)
		}
		if len(m.free) != 1 {
			t.Errorf("mpnn=%v: serial callers left %d scratches on the free list, want 1", mpnn, len(m.free))
		}
	}
}

// staleMirror returns a layer of m whose forward mirror is not W's transpose,
// or -1: every writer of weights (New, training, restoring, decoding) must
// leave none.
func staleMirror(m *Model) int {
	for i, l := range m.params() {
		if !l.MirrorFresh() {
			return i
		}
	}
	return -1
}

// A clone and a MarshalBinary/UnmarshalBinary round trip carry weights, not
// borrowed buffers: both start with an empty free list (no copied lock, no
// Scratch shared with the source) and predict identically to the source.
// Decoding over a used model of another shape must drop its old Scratches.
func TestCloneAndRoundTripStartWithEmptyFreeList(t *testing.T) {
	m := testModel(t, true)
	if l := staleMirror(m); l >= 0 {
		t.Fatalf("New: layer %d's mirror is stale", l)
	}
	load, quota := randInputs(rand.New(rand.NewSource(8)), m.Cfg.Nodes)
	wantY, wantDQ := m.PredictGrad(load, quota)
	if len(m.free) != 1 {
		t.Fatalf("source free list = %d, want 1", len(m.free))
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reused := testModel(t, false) // other shape, free list in use
	reused.Predict(load, quota)
	for name, c := range map[string]*Model{"clone": m.Clone(), "fresh decode": {}, "decode over used model": reused} {
		if name != "clone" {
			if err := c.UnmarshalBinary(blob); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if len(c.free) != 0 {
			t.Errorf("%s: free list starts with %d scratches, want 0", name, len(c.free))
		}
		if l := staleMirror(c); l >= 0 {
			t.Errorf("%s: layer %d's mirror is stale", name, l)
		}
		y, dq := c.PredictGrad(load, quota)
		if y != wantY || c.Predict(load, quota) != wantY {
			t.Errorf("%s: predicts %v, source %v", name, y, wantY)
		}
		for i := range dq {
			if dq[i] != wantDQ[i] {
				t.Errorf("%s: dq[%d]=%v, source %v", name, i, dq[i], wantDQ[i])
			}
		}
	}
}

// --- Perf baseline. Predict/PredictGrad run the PredictWith/PredictGradWith
// kernel plus the free-list borrow (and, for PredictGrad, the gradient copy),
// so one pair of benchmarks covers both entry points. ---

func benchInputs() (*Model, []float64, []float64) {
	parents := [][]int{{}, {0}, {0}, {1, 2}, {3}, {3}, {4, 5}, {6}, {6}, {7, 8}}
	cfg := DefaultConfig(len(parents), parents)
	m := New(cfg, rand.New(rand.NewSource(5)))
	rng := rand.New(rand.NewSource(6))
	load, quota := randInputs(rng, cfg.Nodes)
	return m, load, quota
}

func BenchmarkPredict(b *testing.B) {
	m, load, quota := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(load, quota)
	}
}

func BenchmarkPredictGrad(b *testing.B) {
	m, load, quota := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictGrad(load, quota)
	}
}
