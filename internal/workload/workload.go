// Package workload provides the load generators the paper uses: an
// open-loop constant-rate generator (Vegeta, [13]) and a closed-loop
// user-thread generator with random think time (Locust, [23]), plus
// time-varying shapes (step surges and trace replay) used across the
// evaluation.
package workload

import (
	"math"

	"graf/internal/cluster"
	"graf/internal/sim"
)

// picker selects an API according to the application's mix weights.
type picker struct {
	names   []string
	weights []float64
	total   float64
}

func newPicker(c *cluster.Cluster) *picker {
	p := &picker{}
	for _, api := range c.App.APIs {
		w := api.Mix
		if w <= 0 {
			w = 1
		}
		p.names = append(p.names, api.Name)
		p.weights = append(p.weights, w)
		p.total += w
	}
	return p
}

func (p *picker) pick(eng *sim.Engine) string {
	if len(p.names) == 1 {
		return p.names[0]
	}
	r := eng.Rand().Float64() * p.total
	for i, w := range p.weights {
		if r < w {
			return p.names[i]
		}
		r -= w
	}
	return p.names[len(p.names)-1]
}

// OpenLoop is a Vegeta-like constant-rate generator: requests arrive as a
// Poisson process at Rate(t) requests/s regardless of response latency.
type OpenLoop struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster

	// Rate returns the offered request rate (req/s) at simulated time t.
	// A nil Rate means the generator is idle.
	Rate func(t float64) float64

	// API fixes the request type; empty uses the application's mix.
	API string

	pick    *picker
	stopped bool
	arrive  func() // g.arrival, bound once: scheduling an arrival allocates nothing
}

// NewOpenLoop returns a generator targeting c with the given rate shape.
func NewOpenLoop(c *cluster.Cluster, rate func(t float64) float64) *OpenLoop {
	g := &OpenLoop{Eng: c.Eng, Cluster: c, Rate: rate, pick: newPicker(c)}
	g.arrive = g.arrival
	return g
}

// Start begins generating at the current simulated time until Stop or until
// Rate returns ≤ 0 for maxIdle consecutive draws is not modeled — callers
// stop explicitly or bound the run with RunUntil.
func (g *OpenLoop) Start() {
	g.stopped = false
	g.next()
}

// Stop halts generation after the currently scheduled arrival.
func (g *OpenLoop) Stop() { g.stopped = true }

func (g *OpenLoop) next() {
	if g.stopped || g.Rate == nil {
		return
	}
	rate := g.Rate(g.Eng.Now())
	if rate <= 0 {
		// Re-check for a live rate shortly (rate shapes may resume).
		g.Eng.After(0.1, g.next)
		return
	}
	gap := g.Eng.Rand().ExpFloat64() / rate
	if gap > 10 {
		gap = 10
	}
	g.Eng.After(gap, g.arrive)
}

// arrival submits one request and schedules the next.
func (g *OpenLoop) arrival() {
	if g.stopped {
		return
	}
	api := g.API
	if api == "" {
		api = g.pick.pick(g.Eng)
	}
	g.Cluster.Submit(api, nil)
	g.next()
}

// ConstRate returns a rate function fixed at r.
func ConstRate(r float64) func(float64) float64 {
	return func(float64) float64 { return r }
}

// StepRate returns a rate function that is base before at and surge after —
// the traffic-surge shape of §2.1 and §5.3.
func StepRate(base, surge, at float64) func(float64) float64 {
	return func(t float64) float64 {
		if t < at {
			return base
		}
		return surge
	}
}

// ClosedLoop is a Locust-like generator: Users() concurrent user threads,
// each repeatedly picking an API (per the app mix), issuing a request,
// waiting for the response, then thinking for a uniform random time up to
// ThinkMaxS ("the Locust thread randomly waits for up to 5 seconds", §5.3).
type ClosedLoop struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster

	// Users returns the desired number of user threads at time t.
	Users func(t float64) int

	// ThinkMaxS is the maximum think time in seconds (default 5).
	ThinkMaxS float64

	pick    *picker
	active  int
	stopped bool
}

// NewClosedLoop returns a closed-loop generator with the paper's 5 s
// maximum think time.
func NewClosedLoop(c *cluster.Cluster, users func(t float64) int) *ClosedLoop {
	return &ClosedLoop{Eng: c.Eng, Cluster: c, Users: users, ThinkMaxS: 5, pick: newPicker(c)}
}

// ConstUsers returns a user-count function fixed at n.
func ConstUsers(n int) func(float64) int {
	return func(float64) int { return n }
}

// StepUsers returns base users before at and surge after (the 250→500
// Locust-thread surge of Fig 21).
func StepUsers(base, surge int, at float64) func(float64) int {
	return func(t float64) int {
		if t < at {
			return base
		}
		return surge
	}
}

// Start spawns user threads and keeps the thread count tracking Users(t),
// checking every adjustS seconds (1 s granularity matches Locust's spawn
// behaviour closely enough).
func (g *ClosedLoop) Start() {
	g.stopped = false
	adjust := func() {}
	adjust = func() {
		if g.stopped {
			return
		}
		want := g.Users(g.Eng.Now())
		for g.active < want {
			g.active++
			g.spawn()
		}
		// Excess threads retire themselves in loop() when over target.
		g.Eng.After(1, adjust)
	}
	adjust()
}

// Stop retires all user threads after their in-flight requests complete.
func (g *ClosedLoop) Stop() { g.stopped = true }

func (g *ClosedLoop) spawn() {
	var loop func()
	loop = func() {
		if g.stopped || g.active > g.Users(g.Eng.Now()) {
			g.active--
			return
		}
		api := g.pick.pick(g.Eng)
		g.Cluster.Submit(api, func(float64) {
			think := g.Eng.Rand().Float64() * g.ThinkMaxS
			g.Eng.After(think, loop)
		})
	}
	// Stagger thread starts over one think interval, as Locust ramps.
	g.Eng.After(g.Eng.Rand().Float64()*math.Max(g.ThinkMaxS, 0.001), loop)
}

// TraceRate converts a per-minute invocation-count series (the Azure
// function trace shape, Fig 20) into a rate function in req/s, holding each
// minute's rate constant.
func TraceRate(perMinute []float64) func(float64) float64 {
	return func(t float64) float64 {
		idx := int(t / 60)
		if idx < 0 || idx >= len(perMinute) {
			return 0
		}
		return perMinute[idx] / 60
	}
}

// TraceUsers converts a per-minute series into a user-thread count function
// ("Locust spawns the appropriate number of user threads at every minute",
// §5.3), scaling counts by perUser.
func TraceUsers(perMinute []float64, perUser float64) func(float64) int {
	return func(t float64) int {
		idx := int(t / 60)
		if idx < 0 || idx >= len(perMinute) {
			return 0
		}
		n := int(math.Round(perMinute[idx] / perUser))
		if n < 1 {
			n = 1
		}
		return n
	}
}
