//go:build !race

// Under the race detector sync.Pool drops a random quarter of what it is
// given, so only a build without it can count on a chunk coming back.

package metrics

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// A window past its peak feeds the windows still climbing: after one window
// falls from 2000/s to 100/s, a second one grows by what the first handed
// back, and — once the first drops to look-back 0 — to the first window's old
// size, allocating no chunk on the way.
func TestHandedBackChunksFeedTheNextWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P: no chunk sits in another P's private slot
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	const lookback = 10
	first, second := NewWindow(""), NewWindow("")
	first.SetLookback(lookback)
	second.SetLookback(lookback)
	now := feed(first, 0, 2000, 2*lookback)
	peak := len(first.chunks)
	now = feed(first, now, 100, 2*lookback)
	handedBack := peak - len(first.chunks)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	at := 0.0
	for len(second.chunks) < handedBack {
		at += 1.0 / 2000
		second.Add(at, 1)
	}
	first.SetLookback(0)
	first.Add(now, 1)
	feed(second, at, 2000, 2*lookback)
	runtime.ReadMemStats(&after)

	if len(second.chunks) < peak {
		t.Fatalf("the second window holds %d chunks, want the first's old %d", len(second.chunks), peak)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(unsafe.Sizeof(chunk{})) {
		t.Errorf("growing into %d handed-back chunks allocated %d bytes, want less than one %d-byte chunk", peak, bytes, unsafe.Sizeof(chunk{}))
	}
}
