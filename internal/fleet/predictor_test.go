package fleet

import (
	"math/rand"
	"sync"
	"testing"

	"graf/internal/app"
	"graf/internal/gnn"
)

func testService() (*InferenceService, *gnn.Model) {
	a := app.SyntheticChain(5)
	m := gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(9)))
	return NewInferenceService(m), m
}

func randReq(rng *rand.Rand, n int) (load, quota []float64) {
	load = make([]float64, n)
	quota = make([]float64, n)
	for i := range load {
		load[i] = 10 + rng.Float64()*300
		quota[i] = 100 + rng.Float64()*2000
	}
	return
}

// A predictor's answers must be exactly the model evaluated at the
// quantized grid point — the property that makes cache hits
// indistinguishable from misses.
func TestPredictorMatchesModelAtGridPoint(t *testing.T) {
	s, m := testService()
	p := s.NewPredictor()
	rng := rand.New(rand.NewSource(1))
	n := m.Cfg.Nodes
	sc := m.NewScratch()
	qload := make([]float64, n)
	qquota := make([]float64, n)
	key := make([]int32, 2*n)
	for it := 0; it < 20; it++ {
		load, quota := randReq(rng, n)
		s.quantize(load, quota, qload, qquota, key)
		wantY, wantDQ := m.PredictGradWith(sc, qload, qquota)
		wantDQ = append([]float64(nil), wantDQ...)
		gotY, gotDQ := p.PredictGrad(load, quota)
		if gotY != wantY {
			t.Fatalf("iter %d: PredictGrad=%v want %v", it, gotY, wantY)
		}
		for i := range wantDQ {
			if gotDQ[i] != wantDQ[i] {
				t.Fatalf("iter %d: dq[%d]=%v want %v", it, i, gotDQ[i], wantDQ[i])
			}
		}
		if gotP := p.Predict(load, quota); gotP != wantY {
			t.Fatalf("iter %d: Predict=%v want %v", it, gotP, wantY)
		}
	}
}

// A second tenant asking for a grid point another tenant already computed
// must be served from the cache with bit-identical values.
func TestCacheSharesAcrossTenants(t *testing.T) {
	s, m := testService()
	p1 := s.NewPredictor()
	p2 := s.NewPredictor()
	rng := rand.New(rand.NewSource(2))
	load, quota := randReq(rng, m.Cfg.Nodes)

	y1, dq1 := p1.PredictGrad(load, quota)
	dq1c := append([]float64(nil), dq1...)
	h0, m0, _ := s.Cache.Stats()

	y2, dq2 := p2.PredictGrad(load, quota)
	h1, m1, _ := s.Cache.Stats()
	if h1 != h0+1 || m1 != m0 {
		t.Fatalf("second tenant's identical query was not a pure cache hit (hits %d→%d, misses %d→%d)", h0, h1, m0, m1)
	}
	if y2 != y1 {
		t.Fatalf("cache hit latency %v differs from computed %v", y2, y1)
	}
	for i := range dq1c {
		if dq2[i] != dq1c[i] {
			t.Fatalf("cache hit dq[%d]=%v differs from computed %v", i, dq2[i], dq1c[i])
		}
	}
}

// Predict-only entries must upgrade to gradient entries, never the reverse.
func TestCacheGradUpgrade(t *testing.T) {
	s, m := testService()
	p := s.NewPredictor()
	rng := rand.New(rand.NewSource(3))
	load, quota := randReq(rng, m.Cfg.Nodes)

	y := p.Predict(load, quota) // stores a grad-free entry
	gy, _ := p.PredictGrad(load, quota)
	if gy != y {
		t.Fatalf("grad-upgrade recompute: %v want %v", gy, y)
	}
	h0, _, _ := s.Cache.Stats()
	if y2 := p.Predict(load, quota); y2 != y {
		t.Fatalf("Predict after grad upgrade: %v want %v", y2, y)
	}
	if gy2, _ := p.PredictGrad(load, quota); gy2 != y {
		t.Fatalf("PredictGrad after upgrade: %v want %v", gy2, y)
	}
	h1, _, _ := s.Cache.Stats()
	if h1 != h0+2 {
		t.Fatalf("expected both post-upgrade calls to hit (hits %d→%d)", h0, h1)
	}
}

// A hash collision (same bucket, different key) must degrade to a miss —
// never return another grid point's values.
func TestCacheCollisionIsMissNotCorruption(t *testing.T) {
	c := newPredCache(16, 3, 0)
	keyA := []int32{1, 2, 3}
	keyB := []int32{4, 5, 6}
	const h = uint64(12345) // force both keys into one bucket
	c.Put(h, keyA, 0.111, nil)
	if _, ok := c.Get(h, keyB, nil); ok {
		t.Fatal("colliding key returned another entry's value")
	}
	if lat, ok := c.Get(h, keyA, nil); !ok || lat != 0.111 {
		t.Fatal("stored key not retrievable")
	}
}

// A set holds cacheWays keys and overwrites them round-robin: the key a
// new one evicts is a miss from then on, and a key written again after its
// eviction returns its new value — never the value of the key that had
// taken its slot.
func TestCacheEvictionIsMissNotCorruption(t *testing.T) {
	c := newPredCache(cacheWays, 2, 1) // one set
	key := func(i int) []int32 { return []int32{int32(i), -int32(i)} }
	put := func(i int, lat float64) { c.Put(uint64(i), key(i), lat, []float64{-lat}) }
	get := func(i int) (float64, bool) {
		dq := []float64{0}
		lat, ok := c.Get(uint64(i), key(i), dq)
		if ok && dq[0] != -lat {
			t.Fatalf("key %d: latency %v came back with gradient %v", i, lat, dq[0])
		}
		return lat, ok
	}
	for i := 0; i < cacheWays; i++ {
		put(i, float64(i))
	}
	put(cacheWays, 100) // evicts key 0, the oldest
	if _, ok := get(0); ok {
		t.Fatal("evicted key 0 still hits")
	}
	for i := 1; i <= cacheWays; i++ {
		want := float64(i)
		if i == cacheWays {
			want = 100
		}
		if lat, ok := get(i); !ok || lat != want {
			t.Fatalf("key %d: got %v, %v after evicting key 0, want %v", i, lat, ok, want)
		}
	}
	put(0, 7) // evicts key 1 and takes its slot
	if lat, ok := get(0); !ok || lat != 7 {
		t.Fatalf("re-written key 0: got %v, %v, want its new value 7", lat, ok)
	}
	if _, ok := get(1); ok {
		t.Fatal("key 1, evicted by the re-written key 0, still hits")
	}
	if _, _, size := c.Stats(); size != cacheWays {
		t.Fatalf("size %d, want the %d slots", size, cacheWays)
	}
}

// Once its sets are filled, the cache allocates nothing: not on a hit, not
// on a miss, not on a Put that evicts.
func TestWarmCacheDoesNotAllocate(t *testing.T) {
	const slots, n = 64, 3
	c := newPredCache(slots, 2*n, n)
	key, dq := make([]int32, 2*n), make([]float64, n)
	next := 0
	put := func() {
		key[0] = int32(next)
		next++
		c.Put(hashKey(key), key, 1, dq)
	}
	for i := range c.sets {
		for c.sets[i] == nil {
			put()
		}
	}
	for i := 0; i < 4*slots; i++ {
		put()
	}
	if _, _, size := c.Stats(); size != slots {
		t.Fatalf("size %d after filling, want %d", size, slots)
	}
	hit := make([]int32, 2*n)
	copy(hit, key)
	h := hashKey(hit)
	if allocs := testing.AllocsPerRun(200, func() {
		put()
		c.Get(h, hit, dq)
		c.Get(h, hit, nil)
	}); allocs != 0 {
		t.Fatalf("warm Put + Get allocate %v objects per call, want 0", allocs)
	}
}

// Tenants on different workers share the model and the cache with no
// dispatcher between them: concurrent predictors hammering overlapping grid
// points must each get exactly the model's answer at the grid point, and the
// cache must account for every request. The table is smaller than the
// working set, so evictions race with hits too. Run with -race.
func TestPredictorsConcurrentBitEqual(t *testing.T) {
	s, m := testService()
	n := m.Cfg.Nodes
	s.Cache = newPredCache(2*cacheWays, 2*n, n)

	const clients, points, rounds = 32, 12, 40
	type point struct {
		load, quota []float64
		lat         float64
		dq          []float64
	}
	pts := make([]point, points)
	rng := rand.New(rand.NewSource(6))
	sc := m.NewScratch()
	qload, qquota := make([]float64, n), make([]float64, n)
	key := make([]int32, 2*n)
	for i := range pts {
		pt := &pts[i]
		pt.load, pt.quota = randReq(rng, n)
		s.quantize(pt.load, pt.quota, qload, qquota, key)
		lat, dq := m.PredictGradWith(sc, qload, qquota)
		pt.lat, pt.dq = lat, append([]float64(nil), dq...)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := s.NewPredictor()
			for i := 0; i < rounds; i++ {
				pt := &pts[(c+i)%points]
				if (c+i)%3 == 0 {
					if y := p.Predict(pt.load, pt.quota); y != pt.lat {
						t.Errorf("client %d: Predict=%v want %v", c, y, pt.lat)
						return
					}
					continue
				}
				y, dq := p.PredictGrad(pt.load, pt.quota)
				if y != pt.lat {
					t.Errorf("client %d: PredictGrad=%v want %v", c, y, pt.lat)
					return
				}
				for j := range pt.dq {
					if dq[j] != pt.dq[j] {
						t.Errorf("client %d: dq[%d]=%v want %v", c, j, dq[j], pt.dq[j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	if hits, misses, _ := s.Cache.Stats(); hits+misses != clients*rounds {
		t.Fatalf("cache saw %d hits + %d misses, want %d requests", hits, misses, clients*rounds)
	}
}
