package rpc

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// hashRing is a consistent-hash ring mapping tenant IDs to shard members. With
// virtual nodes, removing a dead shard reassigns only that shard's tenants
// instead of reshuffling the whole population — the property shard-loss
// rebalancing depends on to bound recovery work. A ring is immutable: the
// router derives a fresh one from its live slots whenever it places by ring.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// ringVNodes is the router's virtual-node count per member.
const ringVNodes = 64

// newRing returns the ring over members with the given virtual-node count
// per member.
func newRing(vnodes int, members ...string) *hashRing {
	r := &hashRing{}
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", m, i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// hash64 places a key or a virtual node on the ring: fnv-1a/64 through
// splitmix64's finalizer. The ring orders points by their top bits, which
// fnv-1a barely moves when only a key's last bytes differ — without the
// finalizer "tenant-00" … "tenant-15" all land on one member.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Lookup maps a key to its owning member ("" when the ring is empty).
func (r *hashRing) Lookup(key string) string {
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
