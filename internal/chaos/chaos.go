// Package chaos is the fault-injection subsystem: deterministic, scripted
// failures driven by the simulation engine. A fault schedule is a slice of
// Events — instance kills, correlated crash fractions, telemetry
// blackholes and sampling faults, trace loss, contention bursts — and an
// Injector plays it against a live cluster.
// Because every event fires at a scripted simulated time and all
// randomness flows through the engine's seeded source, a chaos run is as
// reproducible as any other simulation, which is what lets the robustness
// benchmarks compare hardened and vanilla control planes on identical
// fault sequences.
package chaos

import (
	"fmt"

	"graf/internal/cluster"
	"graf/internal/obs"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// killInstances kills N instances of one service.
	killInstances Kind = iota
	// crashFraction kills a correlated fraction of every deployment's
	// instances (node loss, AZ outage).
	crashFraction
	// telemetryBlackhole suppresses one deployment's telemetry for a
	// window: its CPU, latency and arrival windows read empty/stale.
	telemetryBlackhole
	// frontendBlackhole suppresses the frontend arrival and end-to-end
	// latency windows for a window.
	frontendBlackhole
	// arrivalSampling keeps only a fraction of frontend arrival
	// observations for a window (a lossy telemetry pipeline).
	arrivalSampling
	// traceDrop drops each completed trace with probability Fraction
	// before it reaches the collector, for a window.
	traceDrop
	// contention multiplies one service's CPU work for a window.
	contention
	// surfaceDrift permanently multiplies a service's CPU work per request
	// (Service == "" drifts every service): the queueing surface the latency
	// model was trained on no longer exists, and never comes back. The fault
	// the model-lifecycle drift monitor is built to catch.
	surfaceDrift
	// telemetryCorrupt injects N bogus observations into the frontend
	// telemetry at one instant: N end-to-end latency samples of Factor
	// seconds plus N phantom arrivals per API. A scrape glitch, not a real
	// latency change — sanitization should swallow it.
	telemetryCorrupt
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case killInstances:
		return "kill"
	case crashFraction:
		return "crash-fraction"
	case telemetryBlackhole:
		return "telemetry-blackhole"
	case frontendBlackhole:
		return "frontend-blackhole"
	case arrivalSampling:
		return "arrival-sampling"
	case traceDrop:
		return "trace-drop"
	case contention:
		return "contention"
	case surfaceDrift:
		return "surface-drift"
	case telemetryCorrupt:
		return "telemetry-corrupt"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scripted fault. At is seconds after Play; the remaining
// fields are a union interpreted per Kind (see the constructors).
type Event struct {
	At       float64
	Kind     Kind
	Service  string  // killInstances, telemetryBlackhole, contention, surfaceDrift ("" = all)
	N        int     // killInstances; telemetryCorrupt bogus-sample count
	Fraction float64 // crashFraction kill fraction; arrivalSampling keep; traceDrop probability
	Factor   float64 // contention / surfaceDrift work multiplier; telemetryCorrupt bogus latency seconds
	Duration float64 // windowed faults (blackholes, sampling, drop, contention)
}

// Kill returns an event killing n instances of svc at time at.
func Kill(at float64, svc string, n int) Event {
	return Event{At: at, Kind: killInstances, Service: svc, N: n}
}

// Crash returns an event killing fraction of every deployment's instances.
func Crash(at, fraction float64) Event {
	return Event{At: at, Kind: crashFraction, Fraction: fraction}
}

// BlackholeFrontend returns an event suppressing the frontend arrival and
// latency windows for duration.
func BlackholeFrontend(at, duration float64) Event {
	return Event{At: at, Kind: frontendBlackhole, Duration: duration}
}

// SampleArrivals returns an event that records only fraction keep of
// frontend arrivals for duration.
func SampleArrivals(at, keep, duration float64) Event {
	return Event{At: at, Kind: arrivalSampling, Fraction: keep, Duration: duration}
}

// DropTraces returns an event dropping traces with probability p for
// duration.
func DropTraces(at, p, duration float64) Event {
	return Event{At: at, Kind: traceDrop, Fraction: p, Duration: duration}
}

// Contend returns an event multiplying svc's CPU work by factor for
// duration.
func Contend(at float64, svc string, factor, duration float64) Event {
	return Event{At: at, Kind: contention, Service: svc, Factor: factor, Duration: duration}
}

// Drift returns an event permanently multiplying svc's CPU work per request
// by factor at time at (svc == "" drifts every service). Unlike Contend it
// never expires: only a model retrained on post-drift telemetry recovers
// prediction accuracy.
func Drift(at float64, svc string, factor float64) Event {
	return Event{At: at, Kind: surfaceDrift, Service: svc, Factor: factor}
}

// Injector plays fault schedules against one cluster on its engine.
type Injector struct {
	cl *cluster.Cluster

	// Obs, if set, records every firing: a counter per fault kind, a span,
	// a flight-recorder entry, and an active-fault window so controller
	// decisions disturbed by the fault carry its label.
	Obs *obs.ChaosObs
}

// New returns an injector for cl.
func New(cl *cluster.Cluster) *Injector { return &Injector{cl: cl} }

// Play schedules every event relative to the current simulated time.
// It may be called more than once; schedules compose.
func (in *Injector) Play(events []Event) {
	now := in.cl.Eng.Now()
	for _, ev := range events {
		ev := ev
		in.cl.Eng.At(now+ev.At, func() { in.apply(ev) })
	}
}

func (in *Injector) apply(ev Event) {
	detail := ""
	switch ev.Kind {
	case killInstances:
		detail = fmt.Sprintf("%s killed %d", ev.Service, in.cl.KillInstances(ev.Service, ev.N))
	case crashFraction:
		detail = fmt.Sprintf("killed %d (%.0f%% of every deployment)", in.cl.CrashFraction(ev.Fraction), ev.Fraction*100)
	case telemetryBlackhole:
		in.cl.Deployment(ev.Service).SuppressTelemetry(ev.Duration)
		detail = fmt.Sprintf("%s for %.0fs", ev.Service, ev.Duration)
	case frontendBlackhole:
		in.cl.SuppressFrontendTelemetry(ev.Duration)
		detail = fmt.Sprintf("for %.0fs", ev.Duration)
	case arrivalSampling:
		in.cl.SetArrivalSampling(ev.Fraction)
		in.cl.Eng.After(ev.Duration, func() { in.cl.SetArrivalSampling(1) })
		detail = fmt.Sprintf("keep %.0f%% for %.0fs", ev.Fraction*100, ev.Duration)
	case traceDrop:
		in.cl.SetTraceDrop(ev.Fraction)
		in.cl.Eng.After(ev.Duration, func() { in.cl.SetTraceDrop(0) })
		detail = fmt.Sprintf("p=%.2f for %.0fs", ev.Fraction, ev.Duration)
	case contention:
		in.cl.InjectContention(ev.Service, ev.Factor, ev.Duration)
		detail = fmt.Sprintf("%s ×%.1f for %.0fs", ev.Service, ev.Factor, ev.Duration)
	case surfaceDrift:
		in.cl.InjectSurfaceDrift(ev.Service, ev.Factor)
		who := ev.Service
		if who == "" {
			who = "all services"
		}
		detail = fmt.Sprintf("%s ×%.2f permanently", who, ev.Factor)
	case telemetryCorrupt:
		in.cl.CorruptTelemetry(ev.Factor, ev.N)
		detail = fmt.Sprintf("%d bogus samples @ %.1fs", ev.N, ev.Factor)
	}
	if in.Obs != nil {
		// Windowed faults stay "active" for their duration; instantaneous
		// ones (kills, crashes) linger for a recovery-scale window so the
		// decisions they disturb — which come after the instant — are still
		// annotated in the audit log.
		now := in.cl.Eng.Now()
		until := now + ev.Duration
		if ev.Duration <= 0 {
			until = now + 30
		}
		in.Obs.Fired(now, ev.Kind.String(), detail, until)
	}
}
