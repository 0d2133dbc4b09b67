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
// depends on to bound recovery work.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns a ring with the given virtual-node count per member
// (default 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: map[string]bool{}}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", member, i)), member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its virtual nodes.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	out := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			out = append(out, p)
		}
	}
	r.points = out
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
