package rpc

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping tenant IDs to shard members. It
// generalizes the in-process fleet's fnv-1a modulo placement: with virtual
// nodes, removing a dead shard reassigns only that shard's tenants instead
// of reshuffling the whole population — the property shard-loss rebalancing
// depends on to bound recovery work. A ring is immutable: the router derives
// a fresh one from its live slots whenever it places by ring.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// ringVNodes is the router's virtual-node count per member.
const ringVNodes = 64

// NewRing returns the ring over members with the given virtual-node count
// per member.
func NewRing(vnodes int, members ...string) *Ring {
	r := &Ring{}
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", m, i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Lookup maps a key to its owning member ("" when the ring is empty).
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}
