package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []float64
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v events, want 3", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired value %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v after RunUntil(3), want 3", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 5 {
		t.Errorf("after RunUntil(10) fired %d events, want 5", len(got))
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v after RunUntil(10), want 10", e.Now())
	}
}

func TestEngineSchedulingInsideEvent(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if count != 5 {
		t.Errorf("chained events ran %d times, want 5", count)
	}
	if e.Now() != 4 {
		t.Errorf("Now() = %v, want 4", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	var stop func()
	stop = e.Ticker(0, 15, func() {
		times = append(times, e.Now())
		if e.Now() >= 45 {
			stop()
		}
	})
	e.Run()
	want := []float64{0, 15, 30, 45}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	e := NewEngine(1)
	n := 0
	stop := e.Ticker(5, 1, func() { n++ })
	stop()
	e.RunUntil(100)
	if n != 0 {
		t.Errorf("stopped ticker fired %d times", n)
	}
}

// Property: however events are scheduled, they fire in nondecreasing time
// order and the clock matches each event's scheduled time.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine(seed)
		var fired []float64
		for _, r := range raw {
			at := float64(r) / 100
			e.At(at, func() {
				if e.Now() != at {
					t.Errorf("clock %v != scheduled %v", e.Now(), at)
				}
				fired = append(fired, at)
			})
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var out []float64
		var rec func()
		rec = func() {
			out = append(out, e.Now())
			if len(out) < 100 {
				e.After(e.Rand().Float64(), rec)
			}
		}
		e.At(0, rec)
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}
