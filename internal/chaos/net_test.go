package chaos

import (
	"math"
	"testing"
	"time"
)

// Same scenario, same coordinates ⇒ same verdicts: the property that makes
// a network-chaos run replayable.
func TestNetInjectorDeterministic(t *testing.T) {
	sc := NetScenario{
		Seed: 11,
		Events: []NetEvent{
			Drop(2, 6, "s1", 0.5),
			{Kind: NetDelay, FromRound: 3, ToRound: 8, P: 0.3, DelayMS: 40},
		},
	}
	a, b := NewNetInjector(sc), NewNetInjector(sc)
	for round := 0; round < 12; round++ {
		for attempt := 0; attempt < 4; attempt++ {
			for _, op := range []string{"tick", "admit", "health"} {
				for _, shard := range []string{"s1", "s2"} {
					d1, l1 := a.Intercept(op, shard, round, attempt)
					d2, l2 := b.Intercept(op, shard, round, attempt)
					if d1 != d2 || l1 != l2 {
						t.Fatalf("verdict differs at (%s,%s,%d,%d)", op, shard, round, attempt)
					}
				}
			}
		}
	}
}

func TestNetInjectorWindowsAndTargeting(t *testing.T) {
	inj := NewNetInjector(NetScenario{
		Seed:   3,
		Events: []NetEvent{{Kind: netPartition, FromRound: 4, ToRound: 6, Shard: "s1"}},
	})
	for round := 0; round < 10; round++ {
		drop, _ := inj.Intercept("tick", "s1", round, 0)
		want := round >= 4 && round <= 6
		if drop != want {
			t.Fatalf("round %d: partition drop=%v want %v", round, drop, want)
		}
		if d2, _ := inj.Intercept("tick", "s2", round, 0); d2 {
			t.Fatalf("round %d: partition leaked to untargeted shard", round)
		}
	}
}

// Drop probability must land near P across distinct coordinates, and the
// per-attempt coordinate must vary — a retry after an injected drop must be
// able to succeed (otherwise P<1 would behave like a partition).
func TestNetInjectorDropRateAndRetryIndependence(t *testing.T) {
	inj := NewNetInjector(NetScenario{
		Seed:   7,
		Events: []NetEvent{Drop(0, 1_000_000, "", 0.4)},
	})
	dropped := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if d, _ := inj.Intercept("tick", "s1", i, 0); d {
			dropped++
		}
	}
	rate := float64(dropped) / trials
	if math.Abs(rate-0.4) > 0.03 {
		t.Fatalf("drop rate %.3f, want ≈0.40", rate)
	}
	// At least one first-attempt drop must pass on a later attempt.
	recovered := false
	for i := 0; i < 200 && !recovered; i++ {
		if d, _ := inj.Intercept("tick", "s1", i, 0); d {
			for attempt := 1; attempt < 4; attempt++ {
				if d2, _ := inj.Intercept("tick", "s1", i, attempt); !d2 {
					recovered = true
					break
				}
			}
		}
	}
	if !recovered {
		t.Fatal("no dropped request ever succeeded on retry — attempt not in the hash")
	}
}

func TestNetInjectorDelayAccumulates(t *testing.T) {
	inj := NewNetInjector(NetScenario{
		Seed: 5,
		Events: []NetEvent{
			{Kind: NetDelay, FromRound: 1, ToRound: 1, Shard: "s1", P: 1.0, DelayMS: 25},
			{Kind: NetDelay, FromRound: 1, ToRound: 1, Shard: "s1", P: 1.0, DelayMS: 10},
		},
	})
	drop, delay := inj.Intercept("tick", "s1", 1, 0)
	if drop {
		t.Fatal("delay event dropped the request")
	}
	if delay != 35*time.Millisecond {
		t.Fatalf("delay %v, want 35ms (stacked events)", delay)
	}
}

// The verdict stream is a function of the scenario and the coordinates alone.
// rpc's client names a shard by its router slot — never by its listen
// address, which is a fresh ephemeral port on every run — so pinning the
// stream for slot "0" and "1" pins what every run of the scenario draws.
func TestNetInjectorVerdictsPinnedBySlotName(t *testing.T) {
	inj := NewNetInjector(NetScenario{Seed: 13, Events: []NetEvent{Drop(1, 4, "", 0.3)}})
	want := map[string]string{
		"0": "..xx.xx. ..x.xx.. x..xx... .x..x.xx ",
		"1": "...xx... ....x.x. x...x.x. ..x.x... ",
	}
	for shard, w := range want {
		got := ""
		for round := 1; round <= 4; round++ {
			for attempt := 0; attempt < 8; attempt++ {
				if drop, _ := inj.Intercept("tick", shard, round, attempt); drop {
					got += "x"
				} else {
					got += "."
				}
			}
			got += " "
		}
		if got != w {
			t.Errorf("slot %s drew %q, want %q", shard, got, w)
		}
	}
}

// A round whose first three tick attempts all drop opens the client's default
// breaker; the router resets it and re-ticks the same round. The re-tick must
// continue the attempt count: replaying 0..2 would replay the three drops and
// re-open the breaker on every recovery attempt — the livelock this pins.
func TestNetInjectorRetickDrawsFresh(t *testing.T) {
	prefixes := 0
	for seed := int64(1); seed <= 40; seed++ {
		inj := NewNetInjector(NetScenario{Seed: seed, Events: []NetEvent{Drop(1, 6, "", 0.3)}})
		dropped := func(shard string, round, attempt int) bool {
			d, _ := inj.Intercept("tick", shard, round, attempt)
			return d
		}
		for _, shard := range []string{"0", "1"} {
			for round := 1; round <= 6; round++ {
				if !dropped(shard, round, 0) || !dropped(shard, round, 1) || !dropped(shard, round, 2) {
					continue
				}
				prefixes++
				if !dropped(shard, round, 0) {
					t.Fatal("the same coordinates drew a different verdict")
				}
				if dropped(shard, round, 3) && dropped(shard, round, 4) && dropped(shard, round, 5) &&
					dropped(shard, round, 6) && dropped(shard, round, 7) && dropped(shard, round, 8) {
					t.Errorf("seed %d slot %s round %d: attempts 3..8 replay the drop burst", seed, shard, round)
				}
			}
		}
	}
	if prefixes == 0 {
		t.Fatal("no three-drop prefix in 40 seeds: the test exercises nothing")
	}
}
