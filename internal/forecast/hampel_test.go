package forecast

import (
	"math"
	"testing"
)

func TestHampelRejectsSpike(t *testing.T) {
	h := &Hampel{}
	for i := 0; i < 8; i++ {
		h.Push(100 + float64(i%3)) // 100..102, a quiet stream
	}
	got := h.Push(5000) // a scrape glitch
	if got > 110 {
		t.Fatalf("Hampel passed a 50× spike through: got %.1f", got)
	}
	// The stream returns to normal; normal values keep passing.
	if got := h.Push(101); math.Abs(got-101) > 1e-9 {
		t.Fatalf("normal value after spike was altered: got %.2f", got)
	}
}

func TestHampelAdmitsLevelShift(t *testing.T) {
	h := &Hampel{N: 9}
	for i := 0; i < 9; i++ {
		h.Push(100)
	}
	// A genuine level shift (real drift) must pass once it persists: after
	// about half the window the rolling median has moved to the new level.
	passed := -1
	for i := 0; i < 9; i++ {
		if got := h.Push(300); got == 300 {
			passed = i
			break
		}
	}
	if passed < 0 {
		t.Fatal("persistent level shift never passed the Hampel filter")
	}
	if passed > 6 {
		t.Fatalf("level shift took %d pushes to pass; want about half the window", passed+1)
	}
}

func TestHampelShortHistoryPassesThrough(t *testing.T) {
	h := &Hampel{}
	for _, v := range []float64{10, 9000} {
		if got := h.Push(v); got != v {
			t.Fatalf("with <3 observations Push(%.0f) = %.0f; want identity", v, got)
		}
	}
}
