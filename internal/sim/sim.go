// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives everything dynamic in this repository: request arrivals,
// per-instance queueing, instance startup delays, autoscaler control loops,
// and metric sampling. Time is a float64 number of seconds since simulation
// start. Events scheduled at the same instant are executed in FIFO order of
// scheduling, which keeps runs fully deterministic under a fixed seed.
package sim

import (
	"fmt"
	"math/rand"
)

// event is a scheduled callback. Events are ordered by (at, seq); seq is
// unique, so the order is total and any correct heap pops the same sequence.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine. Engines are not
// safe for concurrent use: all callbacks run on the goroutine that calls Run
// or Step.
type Engine struct {
	now   float64
	seq   uint64
	queue []event // binary min-heap, stored by value: scheduling allocates nothing
	rng   *rand.Rand
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always yields the same execution.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source. All stochastic
// components of a simulation must draw from this source (or a source derived
// from it) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it indicates a logic error in the caller, and silently
// clamping would corrupt causality.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.6f before now %.6f", t, e.now))
	}
	e.queue = append(e.queue, event{at: t, seq: e.seq, fn: fn})
	e.seq++
	// Sift the new event up.
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// pop removes and returns the earliest event. The queue must not be empty.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the callback reference
	q = q[:n]
	e.queue = q
	// Sift the moved event down.
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event is after t, then advances the clock to t so subsequent scheduling is
// relative to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker invokes fn every interval seconds, starting at start, until the
// returned stop function is called. It is the simulated analogue of
// time.Ticker and is used for control loops (autoscalers, metric scrapers).
func (e *Engine) Ticker(start, interval float64, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.After(interval, tick)
		}
	}
	e.At(start, tick)
	return func() { stopped = true }
}
