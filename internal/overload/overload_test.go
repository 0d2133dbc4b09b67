package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestGovernorLadderAndHysteresis(t *testing.T) {
	g := NewGovernor(100)
	var trans []Transition
	round := 0
	observe := func(cost float64) (Step, bool) {
		round++
		from := g.Step()
		step, changed := g.Observe(cost)
		if changed {
			trans = append(trans, Transition{From: from, To: step})
		}
		return step, changed
	}

	// Calm rounds: stay at full.
	for i := 0; i < 3; i++ {
		if step, changed := observe(20); step != StepFull || changed {
			t.Fatalf("calm round %d: step=%v changed=%v", i, step, changed)
		}
	}
	// One round over budget degrades one rung (enterN=1), never more.
	if step, changed := observe(500); step != StepWarm || !changed {
		t.Fatalf("pressure round: step=%v changed=%v, want warm", step, changed)
	}
	// Sustained pressure walks the ladder rung by rung and saturates.
	for i, want := range []Step{StepHeuristic, StepHold, StepHold, StepHold} {
		if step, _ := observe(500); step != want {
			t.Fatalf("pressure round %d: step=%v want %v", i, step, want)
		}
	}
	// A round inside the hysteresis band (between 50% and 100% of budget)
	// neither degrades nor starts recovery.
	if step, changed := observe(75); step != StepHold || changed {
		t.Fatalf("band round: step=%v changed=%v", step, changed)
	}
	// Recovery needs exitN=2 consecutive calm rounds per rung.
	if step, _ := observe(10); step != StepHold {
		t.Fatal("recovered after a single calm round")
	}
	if step, changed := observe(10); step != StepHeuristic || !changed {
		t.Fatalf("after 2 calm rounds: step=%v changed=%v, want heuristic", step, changed)
	}
	// A pressure round mid-recovery resets the calm streak and re-degrades.
	if step, _ := observe(500); step != StepHold {
		t.Fatal("pressure mid-recovery did not re-degrade")
	}

	if err := MonotoneTransitions(trans); err != nil {
		t.Fatalf("governor produced non-monotone transitions: %v", err)
	}
	if n := len(trans); n != 5 {
		t.Fatalf("recorded %d transitions, want 5", n)
	}
}

func TestMonotoneTransitionsRejectsJumps(t *testing.T) {
	bad := []Transition{{From: StepFull, To: StepHeuristic}}
	if err := MonotoneTransitions(bad); err == nil {
		t.Fatal("rung-skipping transition accepted")
	}
	gap := []Transition{
		{From: StepFull, To: StepWarm},
		{From: StepHeuristic, To: StepHold},
	}
	if err := MonotoneTransitions(gap); err == nil {
		t.Fatal("discontinuous transition chain accepted")
	}
}

func TestGatePriorities(t *testing.T) {
	g := NewGate(4)

	// Fill half capacity with high-priority work: low sheds, high admits.
	var releases []func()
	for i := 0; i < 2; i++ {
		rel, err := g.Enter(PriHigh)
		if err != nil {
			t.Fatalf("high admit %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if _, err := g.Enter(PriLow); err == nil {
		t.Fatal("low-priority admitted at half capacity")
	} else {
		var ov *ErrOverloaded
		if !errors.As(err, &ov) || ov.RetryAfterMS != retryAfterMS {
			t.Fatalf("shed verdict %v, want ErrOverloaded with RetryAfterMS=%d", err, retryAfterMS)
		}
	}
	// Fill to max: high now sheds too, critical still admits.
	for i := 0; i < 2; i++ {
		rel, err := g.Enter(PriHigh)
		if err != nil {
			t.Fatalf("high admit at %d/4: %v", 2+i, err)
		}
		releases = append(releases, rel)
	}
	if _, err := g.Enter(PriHigh); err == nil {
		t.Fatal("high-priority admitted beyond capacity")
	}
	rel, err := g.Enter(PriCritical)
	if err != nil {
		t.Fatalf("critical shed at full capacity: %v", err)
	}
	rel()

	// Releasing frees slots; double release must not underflow.
	releases[0]()
	releases[0]()
	if _, err := g.Enter(PriHigh); err != nil {
		t.Fatalf("admit after release: %v", err)
	}

	st := g.Stats()
	if st.Shed[PriLow] != 1 || st.Shed[PriHigh] != 1 || st.Shed[PriCritical] != 0 {
		t.Fatalf("shed counters %+v", st.Shed)
	}
	if st.TotalShed() != 2 {
		t.Fatalf("total shed %d, want 2", st.TotalShed())
	}
}

func TestGateConcurrentInflightBound(t *testing.T) {
	const max = 8
	g := NewGate(max)
	var mu sync.Mutex
	inflight, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rel, err := g.Enter(PriHigh)
				if err != nil {
					continue
				}
				mu.Lock()
				inflight++
				if inflight > peak {
					peak = inflight
				}
				mu.Unlock()
				mu.Lock()
				inflight--
				mu.Unlock()
				rel()
			}
		}()
	}
	wg.Wait()
	if peak > max {
		t.Fatalf("inflight peaked at %d, bound %d", peak, max)
	}
	if st := g.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight %d after all releases", st.Inflight)
	}
}

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1500"},
		{time.Millisecond / 2, "1"}, // rounds up, never serializes live budget as 0
		{0, "0"},
		{-time.Second, "0"},
	}
	for _, c := range cases {
		if got := FormatRemaining(c.d); got != c.want {
			t.Errorf("FormatRemaining(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	if d, ok := ParseRemaining("250"); !ok || d != 250*time.Millisecond {
		t.Fatalf("ParseRemaining(250) = %v, %v", d, ok)
	}
	for _, h := range []string{"", "abc", "-5"} {
		if _, ok := ParseRemaining(h); ok {
			t.Errorf("ParseRemaining(%q) accepted", h)
		}
	}

	ctx := WithDeadline(context.Background(), time.Unix(100, 0))
	if d, ok := DeadlineFrom(ctx); !ok || !d.Equal(time.Unix(100, 0)) {
		t.Fatalf("context deadline round-trip: %v %v", d, ok)
	}
	if _, ok := DeadlineFrom(context.Background()); ok {
		t.Fatal("deadline found on bare context")
	}
}
