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
//     have computed it.
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
	"sync"
	"sync/atomic"
)

// cacheEntry is one cached prediction at a quantized grid point. The full
// quantized key is stored (not just its hash) so a hash collision degrades
// to a miss, never to a wrong value.
type cacheEntry struct {
	key []int32
	lat float64
	dq  []float64 // nil for Predict-only entries
}

// PredCache is the quantized prediction cache shared by every tenant's
// solver. When the entry count reaches capacity the whole map is flushed —
// the fleet's access pattern is bursts of shared solver trajectories, for
// which wholesale flush behaves as well as LRU and costs nothing on the hit
// path.
type PredCache struct {
	mu      sync.RWMutex
	entries map[uint64]*cacheEntry
	cap     int

	hits   atomic.Int64
	misses atomic.Int64
}

// NewPredCache returns a cache bounded to capacity entries.
func NewPredCache(capacity int) *PredCache {
	return &PredCache{entries: make(map[uint64]*cacheEntry), cap: capacity}
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

// Get returns the cached prediction for the quantized key, if present. When
// needGrad is set, entries without a stored gradient are treated as misses.
// The returned gradient slice is owned by the cache — callers copy it.
func (c *PredCache) Get(h uint64, key []int32, needGrad bool) (float64, []float64, bool) {
	c.mu.RLock()
	e := c.entries[h]
	if e == nil || !keysEqual(e.key, key) || (needGrad && e.dq == nil) {
		c.mu.RUnlock()
		c.misses.Add(1)
		return 0, nil, false
	}
	lat, dq := e.lat, e.dq
	c.mu.RUnlock()
	c.hits.Add(1)
	return lat, dq, true
}

// Put stores a prediction for the quantized key, copying key and dq. An
// existing entry holding a gradient is never downgraded to a grad-free one.
func (c *PredCache) Put(h uint64, key []int32, lat float64, dq []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[h]; e != nil && keysEqual(e.key, key) && e.dq != nil && dq == nil {
		return
	}
	if len(c.entries) >= c.cap {
		c.entries = make(map[uint64]*cacheEntry)
	}
	e := &cacheEntry{key: append([]int32(nil), key...), lat: lat}
	if dq != nil {
		e.dq = append([]float64(nil), dq...)
	}
	c.entries[h] = e
}

// Stats returns the cache's lifetime counters and current size.
func (c *PredCache) Stats() (hits, misses, size int64) {
	c.mu.RLock()
	size = int64(len(c.entries))
	c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), size
}
