// Package fleet is the sharded multi-tenant control plane: N independent
// GRAF application controllers (each with its own simulated cluster,
// workload and decision loop) driven inside one process by a fixed worker
// pool, all sharing one latency model behind a quantized prediction cache.
//
// Three properties anchor the design:
//
//   - Determinism. Tenants are assigned to shards by an fnv-1a hash of
//     their ID, ticked in sorted order within a shard, and each owns its
//     private sim.Engine and rng — so a same-seed fleet run produces
//     byte-identical per-tenant audit logs no matter how many workers,
//     shards or OS threads drive it. The prediction cache preserves this
//     by construction: every prediction is computed AT the quantized grid
//     point, so a hit returns bit-identical values to the miss that would
//     have computed it, and an eviction changes only the hit rate.
//
//   - Containment. A panic inside one tenant's tick marks that tenant
//     degraded and quarantines it; the process and every other tenant are
//     unaffected.
//
//   - Sharing. Tenants evaluate one read-only model, each on its own
//     worker, and a quantized (load, quota) → (latency, gradient) cache
//     lets homogeneous tenants reuse each other's solver trajectories.
package fleet

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// cacheWays is the associativity of the prediction cache: a key may live in
// any of its set's cacheWays slots.
const cacheWays = 4

// cacheSet is one set of the prediction cache: cacheWays slots, written
// round-robin. Slot w's key is keys[w*keyLen:][:keyLen] and its gradient
// dq[w*gradLen:][:gradLen]. The full quantized key is stored (not just its
// hash) so a hash collision degrades to a miss, never to a wrong value.
type cacheSet struct {
	h    [cacheWays]uint64
	lat  [cacheWays]float64
	grad [cacheWays]bool // slot holds a gradient (Predict-only slots do not)
	n    int             // slots filled: [0, n)
	next int             // the slot the next new key overwrites
	keys []int32
	dq   []float64 // allocated with the set's first gradient
}

// PredCache is the quantized prediction cache shared by every tenant's
// solver: a set-associative table of fixed size. The top bits of a key's
// hash pick its set (an fnv-1a hash's low k bits depend only on the low k
// bits of the bytes hashed); a new key takes the set's next slot
// round-robin, evicting whatever was there. A set's storage is allocated
// when a key first lands in it, so an idle fleet holds little more than the
// table of set pointers, and once the sets a fleet touches are filled, Get
// and Put allocate nothing.
//
// Eviction cannot move a decision: every value is the model evaluated at
// the key's grid point, so a miss recomputes exactly what a hit would have
// returned.
type PredCache struct {
	mu      sync.RWMutex
	sets    []*cacheSet // nil until a key first lands in the set
	shift   uint        // set index = h >> shift (64 for one set: Go shifts it to 0)
	keyLen  int
	gradLen int
	size    int64

	hits   atomic.Int64
	misses atomic.Int64
}

// NewPredCache returns a cache of at least slots slots (rounded up to a
// power-of-two number of sets) for keys of keyLen and gradients of gradLen
// values.
func NewPredCache(slots, keyLen, gradLen int) *PredCache {
	sets := max(1, (slots+cacheWays-1)/cacheWays)
	logSets := bits.Len(uint(sets - 1))
	return &PredCache{
		sets:    make([]*cacheSet, 1<<logSets),
		shift:   uint(64 - logSets),
		keyLen:  keyLen,
		gradLen: gradLen,
	}
}

func keysEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashKey is fnv-1a over the quantized key's int32s.
func hashKey(key []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, k := range key {
		u := uint32(k)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(u >> s))
			h *= prime64
		}
	}
	return h
}

// find returns the slot of key in s, or -1.
func (c *PredCache) find(s *cacheSet, h uint64, key []int32) int {
	for w := 0; w < s.n; w++ {
		if s.h[w] == h && keysEqual(s.keys[w*c.keyLen:][:c.keyLen], key) {
			return w
		}
	}
	return -1
}

// Get returns the cached prediction for the quantized key, if present. A
// non-nil dq asks for the gradient too: a slot without one is a miss, and a
// hit copies the gradient into dq — under the lock, because once it is
// released the slot may be overwritten.
func (c *PredCache) Get(h uint64, key []int32, dq []float64) (float64, bool) {
	c.mu.RLock()
	s := c.sets[h>>c.shift]
	w := -1
	if s != nil {
		w = c.find(s, h, key)
	}
	if w < 0 || (dq != nil && !s.grad[w]) {
		c.mu.RUnlock()
		c.misses.Add(1)
		return 0, false
	}
	lat := s.lat[w]
	if dq != nil {
		copy(dq, s.dq[w*c.gradLen:][:c.gradLen])
	}
	c.mu.RUnlock()
	c.hits.Add(1)
	return lat, true
}

// Put stores a prediction for the quantized key, copying key and dq. A slot
// already holding the key keeps it, gaining dq if it had no gradient; a
// gradient is never dropped.
func (c *PredCache) Put(h uint64, key []int32, lat float64, dq []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sets[h>>c.shift]
	if s == nil {
		s = &cacheSet{keys: make([]int32, cacheWays*c.keyLen)}
		c.sets[h>>c.shift] = s
	}
	w := c.find(s, h, key)
	if w < 0 {
		w = s.next
		s.next = (s.next + 1) % cacheWays
		if s.n < cacheWays {
			s.n++
			c.size++
		}
		s.h[w], s.lat[w], s.grad[w] = h, lat, false
		copy(s.keys[w*c.keyLen:][:c.keyLen], key)
	} else if s.grad[w] || dq == nil {
		return
	}
	if dq != nil {
		if s.dq == nil {
			s.dq = make([]float64, cacheWays*c.gradLen)
		}
		copy(s.dq[w*c.gradLen:][:c.gradLen], dq)
		s.grad[w] = true
	}
}

// Stats returns the cache's lifetime counters and current size.
func (c *PredCache) Stats() (hits, misses, size int64) {
	c.mu.RLock()
	size = c.size
	c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), size
}
