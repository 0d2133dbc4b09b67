// Package overload implements the fleet's overload-protection primitives
// (DESIGN.md §3j): the brownout degradation ladder and its hysteresis
// governor, a bounded-inflight admission gate with per-endpoint shedding
// priorities, and the deadline-propagation wire helpers the RPC plane uses
// to refuse work nobody will wait for.
//
// The package is a leaf — stdlib only — so core, fleet, rpc, and the
// commands can all share the same Step vocabulary without import cycles.
package overload

import "fmt"

// Step is one rung of the brownout degradation ladder. Under pressure a
// tenant's control loop walks down the ladder one rung per tick (never
// skipping rungs), trading decision quality for bounded decision cost:
//
//	StepFull      full GNN gradient-descent solve (the normal path)
//	StepWarm      warm-started short solve from the previous raw solution
//	StepHeuristic utilization heuristic quota, no solve, no trace refresh
//	StepHold      hold the last applied decision untouched
//
// Every rung emits a distinct audit-record kind, so byte-identical replay
// and the SLO budget monitors hold across transitions.
type Step int

const (
	StepFull Step = iota
	StepWarm
	StepHeuristic
	StepHold

	stepCount
)

// String names the rung for logs and audit summaries.
func (s Step) String() string {
	switch s {
	case StepFull:
		return "full"
	case StepWarm:
		return "warm"
	case StepHeuristic:
		return "heuristic"
	case StepHold:
		return "hold"
	}
	return fmt.Sprintf("step(%d)", int(s))
}

// ParseStep inverts String: it maps a rung name from a flag or config file
// back onto the ladder.
func ParseStep(name string) (Step, error) {
	for s := StepFull; s < stepCount; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return StepFull, fmt.Errorf("overload: unknown ladder step %q (full | warm | heuristic | hold)", name)
}

// ClampStep bounds an externally supplied level onto the ladder.
func ClampStep(s Step) Step {
	if s < StepFull {
		return StepFull
	}
	if s >= stepCount {
		return StepHold
	}
	return s
}

// The governor's hysteresis. A round costing at least enterHigh × budget is
// pressure, and one costing at most exitLow × budget counts toward recovery;
// rounds inside the band reset both streaks, so the ladder cannot oscillate
// on borderline rounds. enterN consecutive pressure rounds step one rung
// down (degrade promptly), exitN consecutive calm rounds one rung back up
// (recover cautiously).
const (
	enterHigh = 1.0
	exitLow   = 0.5
	enterN    = 1
	exitN     = 2
)

// Transition is one recorded ladder move. From and To always differ by
// exactly one rung — the governor never jumps.
type Transition struct {
	Round    int
	From, To Step
}

// Governor turns observed round costs into a brownout target with
// hysteresis. It does not assume the cost's unit: a shard feeds it wall
// milliseconds, the overload experiment counted model calls. It is not
// goroutine-safe: one observer (the round loop) owns it.
type Governor struct {
	budget float64
	step   Step
	high   int // consecutive rounds at/over enterHigh
	low    int // consecutive rounds at/under exitLow
}

// NewGovernor builds a governor defending budget per round.
func NewGovernor(budget float64) *Governor {
	return &Governor{budget: budget}
}

// Observe feeds one completed round's cost and returns the (possibly
// updated) target step and whether it changed this round. Moves are always
// a single rung.
func (g *Governor) Observe(cost float64) (Step, bool) {
	switch {
	case g.budget > 0 && cost >= g.budget*enterHigh:
		g.high++
		g.low = 0
	case g.budget > 0 && cost <= g.budget*exitLow:
		g.low++
		g.high = 0
	default:
		g.high, g.low = 0, 0
	}
	from := g.step
	if g.high >= enterN && g.step < StepHold {
		g.step++
		g.high = 0
	} else if g.low >= exitN && g.step > StepFull {
		g.step--
		g.low = 0
	}
	return g.step, g.step != from
}

// Step returns the current target rung.
func (g *Governor) Step() Step { return g.step }

// MonotoneTransitions reports whether every recorded move in trans walks
// exactly one rung and stays on the ladder — the invariant the chaos
// campaign checker asserts.
func MonotoneTransitions(trans []Transition) error {
	prev := StepFull
	for i, tr := range trans {
		if tr.From != prev {
			return fmt.Errorf("transition %d: from %v, but ladder was at %v", i, tr.From, prev)
		}
		d := int(tr.To) - int(tr.From)
		if d != 1 && d != -1 {
			return fmt.Errorf("transition %d: %v -> %v skips rungs", i, tr.From, tr.To)
		}
		if tr.To < StepFull || tr.To > StepHold {
			return fmt.Errorf("transition %d: %v off the ladder", i, tr.To)
		}
		prev = tr.To
	}
	return nil
}
