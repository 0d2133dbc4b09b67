package chaos

import (
	"hash/fnv"
	"time"
)

// Network faults for the multi-process control plane. Unlike the
// cluster-level events above, these fire on the wire between the router and
// its shard processes: requests are dropped, delayed, or a shard is
// partitioned. They plug into the rpc client's FaultInjector seam
// (structurally — chaos does not import rpc), and every decision is a pure
// hash of (seed, op, shard, round, attempt). The client names a shard by its
// router slot, never by its address (a respawn or a ":0" listener changes
// the address, not the slot), and numbers attempts per (op, shard) across
// the whole round, so a chaos run draws the same verdicts in every process
// and on every run, and a re-tick of the same round draws fresh ones.
// Process deaths — a shard's or the router's — are not wire faults: they are
// rpc.Schedule entries, performed by rpc.Drill.

// NetFaultKind enumerates the injectable network fault types.
type NetFaultKind int

const (
	// netDrop loses each matching request with probability P (the retry
	// path's exercise: the router must retry with backoff and succeed).
	netDrop NetFaultKind = iota
	// NetDelay injects DelayMS of latency into each matching request with
	// probability P (the timeout path's exercise).
	NetDelay
	// netPartition drops every matching request — the shard is unreachable
	// for the window, though the process stays healthy (heartbeats fail
	// too; the breaker and the router's dead-shard machinery take over).
	netPartition
)

// String names the network fault kind.
func (k NetFaultKind) String() string {
	switch k {
	case netDrop:
		return "net-drop"
	case NetDelay:
		return "net-delay"
	case netPartition:
		return "net-partition"
	default:
		return "unknown"
	}
}

// NetEvent is one scheduled network fault. Windows are expressed in router
// rounds — the control plane's logical clock — not wall time, so a fault
// schedule is independent of how fast rounds actually run.
type NetEvent struct {
	Kind NetFaultKind
	// FromRound..ToRound (inclusive) is the active window. ToRound 0 means
	// FromRound only.
	FromRound, ToRound int
	// Shard targets one shard by the name the client gives it — its router
	// slot, "0", "1", ... ("" = every shard).
	Shard string
	// Op targets one endpoint name ("" = every endpoint; heartbeat probes
	// are "health").
	Op string
	// P is the per-request probability for netDrop/NetDelay (0..1).
	P float64
	// DelayMS is the injected latency for NetDelay.
	DelayMS float64
}

func (e NetEvent) active(round int) bool {
	to := e.ToRound
	if to == 0 {
		to = e.FromRound
	}
	return round >= e.FromRound && round <= to
}

// NetScenario is a deterministic schedule of network faults.
type NetScenario struct {
	Seed   int64
	Events []NetEvent
}

// Drop returns a request-drop event.
func Drop(fromRound, toRound int, shard string, p float64) NetEvent {
	return NetEvent{Kind: netDrop, FromRound: fromRound, ToRound: toRound, Shard: shard, P: p}
}

// Delay returns a latency-injection event.
func Delay(fromRound, toRound int, shard string, p, delayMS float64) NetEvent {
	return NetEvent{Kind: NetDelay, FromRound: fromRound, ToRound: toRound, Shard: shard, P: p, DelayMS: delayMS}
}

// partition returns a full-partition event.
func partition(fromRound, toRound int, shard string) NetEvent {
	return NetEvent{Kind: netPartition, FromRound: fromRound, ToRound: toRound, Shard: shard}
}

// NetInjector evaluates a NetScenario against outbound control-plane
// requests. It implements the rpc client's FaultInjector interface
// structurally. Stateless by construction — every verdict is recomputed
// from the hash — so it is safe for concurrent use without locks.
type NetInjector struct {
	sc NetScenario
}

// NewNetInjector builds an injector for a scenario.
func NewNetInjector(sc NetScenario) *NetInjector {
	return &NetInjector{sc: sc}
}

// roll maps (seed, op, shard, round, attempt, eventIndex) to a uniform
// [0,1) — the injector's only randomness source. FNV-1a alone carries a
// difference in its last bytes into the low bits only, which the result
// discards: slots "0" and "1" would draw one stream. The finalizer
// (MurmurHash3's) spreads every input bit over the whole word.
func (n *NetInjector) roll(op, shard string, round, attempt, ev int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []int64{n.sc.Seed, int64(round), int64(attempt), int64(ev)} {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(shard))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// Intercept decides one outbound request's fate: drop it, delay it, or let
// it through. Matches the rpc.FaultInjector contract: shard is the slot name
// and attempt counts this round's attempts at op on that shard, so the same
// coordinates never come twice in one run.
func (n *NetInjector) Intercept(op, shard string, round, attempt int) (drop bool, delay time.Duration) {
	for i, e := range n.sc.Events {
		if !e.active(round) {
			continue
		}
		if e.Shard != "" && e.Shard != shard {
			continue
		}
		if e.Op != "" && e.Op != op {
			continue
		}
		switch e.Kind {
		case netPartition:
			return true, 0
		case netDrop:
			if n.roll(op, shard, round, attempt, i) < e.P {
				return true, delay
			}
		case NetDelay:
			if n.roll(op, shard, round, attempt, i) < e.P {
				delay += time.Duration(e.DelayMS * float64(time.Millisecond))
			}
		}
	}
	return false, delay
}
