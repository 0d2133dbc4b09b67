// Package cluster simulates the container-orchestration substrate the paper
// runs on (Kubernetes, §2.1/§4): per-microservice deployments of replica
// instances, CPU quotas, instance-creation latency, request execution with
// per-deployment queueing, and the telemetry (CPU utilization, latency
// percentiles, traces, perceived workload) that GRAF and the baseline
// autoscalers consume.
//
// # Execution model
//
// Each microservice is a Deployment: a shared FIFO queue served by its ready
// Instances. An instance serves one request at a time; its service time is
// BaseMS (non-CPU floor) plus lognormal CPU work scaled by the per-instance
// CPU quota, so halving the quota doubles the CPU portion of the service
// time. After the instance is released the request executes its call tree:
// stages run sequentially, calls within a stage run in parallel, exactly the
// sum/max latency composition of §3 ("a combination of multiple addition and
// max operations").
//
// Each API's call tree is compiled once, when the cluster is built, into
// nodes that hold their deployment. Every invocation of a node runs on a frame
// (frame.go): one record holding the call's progress — repetition, attempt,
// queue wait, service time, the stage in progress and the children it still
// waits for — and a pointer to its parent's frame. The deployment queues the
// frame itself and the event engine calls it back through func values bound
// when the frame object was made, so a request's steps allocate nothing;
// frames and request records are recycled through per-Cluster free lists. A
// request record counts the request's visits per service; it builds the spans
// of a trace only while an OnTrace observer is set. Completed requests give
// their visit counts to a per-API history (internal/trace), and their traces
// to the observer if there is one; telemetry goes to windows
// (internal/metrics), one kind per Signal, that keep only as far back as that
// signal's readers declared they look (DeclareLookback): once the free lists
// have grown and the windows hold one look-back, a simulated request
// allocates nothing.
//
// # Instance creation
//
// Creating instances takes time (paper Fig 1: 5.5 s for one instance,
// 45.6 s for a batch of 16). A batch of k instances requested together
// becomes ready one by one at StartupBaseS + j*StartupSlopeS (j = 1..k),
// reproducing both the single-instance delay and the batch completion times
// of Fig 1. This delay is the root cause of the cascading effect (§2.1).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"graf/internal/app"
	"graf/internal/metrics"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/trace"
)

// Config holds cluster-wide constants.
type Config struct {
	// CPUUnit is the CPU quota of one instance in millicores (the CPUunit
	// of Eq. 7). Scaling a deployment to quota r yields ceil(r/CPUUnit)
	// instances.
	CPUUnit float64

	// StartupBaseS and StartupSlopeS parameterize instance-creation time:
	// the j-th instance of a batch is ready after StartupBaseS +
	// j*StartupSlopeS seconds. Defaults fit the paper's Figure 1.
	StartupBaseS  float64
	StartupSlopeS float64

	// MinQuota floors any per-instance quota (millicores) to keep service
	// times finite.
	MinQuota float64

	// TraceCap bounds retained traces per API (0 = unbounded).
	TraceCap int

	// MaxRetries, RetryBaseS and QueueTimeoutS parameterize the call
	// layer's fault handling (the client side of each RPC). A job lost to
	// a crashed instance — or stuck in queue longer than QueueTimeoutS —
	// is retried up to MaxRetries times with exponential backoff starting
	// at RetryBaseS. Exhausted retries fail the call: the request
	// continues degraded (as with an upstream 5xx swallowed by the
	// caller) and the failure is surfaced in the deployment's error-rate
	// telemetry. QueueTimeoutS = 0 disables queue timeouts.
	MaxRetries    int
	RetryBaseS    float64
	QueueTimeoutS float64
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		CPUUnit:       250,
		StartupBaseS:  2.8,
		StartupSlopeS: 2.67,
		MinQuota:      10,
		TraceCap:      4096,
		MaxRetries:    3,
		RetryBaseS:    0.25,
		QueueTimeoutS: 0,
	}
}

type instance struct {
	id        int
	ready     bool
	busy      bool
	condemned bool
	crashed   bool
	pending   bool // the ready event is scheduled and has not fired
	readyAt   float64

	d       *Deployment
	readyFn func() // in.becomeReady, bound once per object
}

// Deployment is one microservice's replica set.
type Deployment struct {
	Service app.Service

	cl        *Cluster
	queue     frameQueue // frames waiting for an instance, FIFO
	instances []*instance
	free      []*instance // retired instances nothing can reach any more, for createBatch to reuse
	nextID    int

	quota float64 // total desired CPU quota in millicores

	// contention multiplies CPU work per request while an injected
	// contention anomaly is active (§6, "Actively removing contention
	// anomalies"): resource interference slows execution without any
	// change in workload or quota.
	contention float64

	// drift is a persistent work multiplier: a permanent mutation of the
	// queueing surface (a code regression, a dependency slowdown, a data
	//-set growth) that invalidates whatever latency model was trained
	// before it. Unlike contention it never expires — only retraining, not
	// patience, recovers the model's accuracy. 0 or 1 = none.
	drift float64

	// ln caches the service-time distribution's parameters between requests.
	ln lognormal

	// Telemetry.
	readySeries    *metrics.Series // ready-instance count over time, as far back as CPU's look-back
	cpuWork        *metrics.Window // CPU-seconds consumed, stamped at completion
	selfLat        *metrics.Window // per-invocation self latency (s): queue+service
	arrivals       *metrics.Window // arrival timestamps (value 1)
	failedAttempts int             // attempts lost to a crash or a queue timeout

	// suppressUntil black-holes the deployment's metric writes (cpuWork,
	// selfLat, arrivals) until the given simulated time: a dead metrics
	// agent. Instance-count series are exempt — the control plane, not
	// the telemetry pipeline, reports those.
	suppressUntil float64
}

// Cluster simulates one application deployed on an orchestration substrate.
type Cluster struct {
	Eng *sim.Engine
	App *app.App
	Cfg Config

	deps     map[string]*Deployment
	names    []string
	apis     map[string]*apiState
	apiNames []string // the APIs' names, sorted once: the order their rates are summed in
	applying []string // ApplyQuotas' sorted service names, reused by every call
	traces   *trace.Collector
	onTrace  func(*trace.Trace)
	e2eAll   *metrics.Window // end-to-end latency, all APIs

	declared bool // DeclareLookback was called: windows keep what their signal's readers declared, not everything

	// Free lists of the request path (frame.go). Both grow to the peak
	// number of requests and calls in flight and are never trimmed.
	freeReqs   []*request
	freeFrames []*frame
	framesMade int // frame objects ever created

	nextTraceID  int64
	inFlight     int
	createdTotal int

	// Fault-injection state (driven by internal/chaos).
	frontSuppressUntil float64 // frontend arrival+latency windows black-holed
	arrivalKeep        float64 // fraction of frontend arrivals recorded (1 = all)
	arrivalAcc         float64 // deterministic sampling accumulator
	traceDropP         float64 // probability a completed trace never reaches the collector

	killedTotal   int // instances killed by fault injection
	failedCalls   int // calls that exhausted their retries
	failedReqs    int // requests completing with ≥1 failed call
	droppedTraces int

	// Obs, if set, observes scale events and instance churn. Nil disables
	// the instrumentation.
	Obs *obs.ClusterObs
}

// New builds a cluster for application a on engine eng. Every deployment
// starts with one instance, already ready (as after an initial rollout).
func New(eng *sim.Engine, a *app.App, cfg Config) *Cluster {
	c := &Cluster{
		Eng:         eng,
		App:         a,
		Cfg:         cfg,
		deps:        make(map[string]*Deployment, len(a.Services)),
		apis:        make(map[string]*apiState, len(a.APIs)),
		traces:      trace.NewCollector(cfg.TraceCap, a.ServiceNames()),
		e2eAll:      metrics.NewWindow("end-to-end latency"),
		arrivalKeep: 1,
	}
	for _, svc := range a.Services {
		d := &Deployment{
			Service:     svc,
			cl:          c,
			quota:       cfg.CPUUnit,
			readySeries: new(metrics.Series),
			cpuWork:     metrics.NewWindow("CPU work"),
			selfLat:     metrics.NewWindow("service self-latency"),
			arrivals:    metrics.NewWindow("service arrival"),
		}
		inst := &instance{id: d.nextID, ready: true, readyAt: eng.Now(), d: d}
		inst.readyFn = inst.becomeReady
		d.nextID++
		d.instances = append(d.instances, inst)
		d.recordCounts()
		c.deps[svc.Name] = d
		c.names = append(c.names, svc.Name)
	}
	for _, api := range a.APIs {
		c.apis[api.Name] = &apiState{name: api.Name, root: c.compile(api.Root), arrivals: metrics.NewWindow("API arrival")}
	}
	for name := range c.apis {
		c.apiNames = append(c.apiNames, name)
	}
	sort.Strings(c.apiNames)
	return c
}

// Signal names one kind of trailing telemetry the cluster records, as a bit
// so that a reader declares several at once. They mirror the accessor groups.
type Signal uint8

const (
	APIRates     Signal = 1 << iota // APIArrivalRate, FillAPIArrivalRates, per API
	E2ELatency                      // E2ELatencyQuantile, E2EWindow
	CPU                             // Utilization, CPUPerRequestMS, per service
	ServiceRates                    // ArrivalRate, ArrivalRateAt, per service
	SelfLatency                     // SelfLatencyQuantile, per service
	AllSignals   = APIRates | E2ELatency | CPU | ServiceRates | SelfLatency
)

// windows calls fn on every telemetry window, with the signal it records.
func (c *Cluster) windows(fn func(Signal, *metrics.Window)) {
	fn(E2ELatency, c.e2eAll)
	for _, st := range c.apis {
		fn(APIRates, st.arrivals)
	}
	for _, d := range c.deps {
		fn(CPU, d.cpuWork)
		fn(ServiceRates, d.arrivals)
		fn(SelfLatency, d.selfLat)
	}
}

// DeclareLookback declares that a component about to read the named signals
// looks back at most seconds behind the clock; +Inf for one that reads
// whole-run intervals. Every reader declares what it reads when it is
// constructed, and a signal's windows keep the longest declared for it. While
// nobody has declared, everything is kept; from the first declaration on, a
// signal nobody declared keeps nothing — its windows count and date their
// observations (Len, LastAt, LastArrivalAt, LastDeploymentTelemetryAt answer
// as ever) and any read of one panics naming it, as does a read that reaches
// past a too-short declaration: a wiring bug, like Deployment's unknown
// service. A later declaration cannot bring back what is already gone.
func (c *Cluster) DeclareLookback(signals Signal, seconds float64) {
	c.windows(func(s Signal, w *metrics.Window) {
		if !c.declared {
			w.SetLookback(0)
		}
		if signals&s != 0 {
			w.SetLookback(max(w.Lookback(), seconds))
		}
	})
	c.declared = true
}

// Retained returns how many observations the named signals' windows hold.
func (c *Cluster) Retained(signals Signal) (n int) {
	c.windows(func(s Signal, w *metrics.Window) {
		if signals&s != 0 {
			n += w.Retained()
		}
	})
	return n
}

// APIArrivalRate returns the frontend arrival rate (req/s) for one API over
// the trailing window — the only workload signal GRAF's proactive path is
// allowed to use (§3.8: "Latency Prediction Model only utilizes front-end
// workloads data").
func (c *Cluster) APIArrivalRate(api string, window float64) float64 {
	st, ok := c.apis[api]
	if !ok {
		return 0
	}
	now := c.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	return float64(st.arrivals.Count(from, now)) / (now - from)
}

// APINames returns the names of the application's APIs in sorted order. The
// slice is the cluster's own: callers must not modify it.
func (c *Cluster) APINames() []string { return c.apiNames }

// FillAPIArrivalRates sets dst[api] to APIArrivalRate for every API and
// returns their sum, added in APINames order. Map iteration order is
// randomized and float addition is not associative, so an unordered sum could
// differ by an ULP between otherwise identical runs — enough to break the
// flight recorder's byte-identical same-seed replay. dst is the caller's: a
// controller fills the same map every decision.
func (c *Cluster) FillAPIArrivalRates(dst map[string]float64, window float64) (total float64) {
	for _, api := range c.apiNames {
		r := c.APIArrivalRate(api, window)
		dst[api] = r
		total += r
	}
	return total
}

// Deployment returns the deployment for the named service. It panics on an
// unknown name (a wiring bug, not a runtime condition).
func (c *Cluster) Deployment(name string) *Deployment {
	d, ok := c.deps[name]
	if !ok {
		panic(fmt.Sprintf("cluster: unknown service %q", name))
	}
	return d
}

// Traces returns the cluster's trace collector.
func (c *Cluster) Traces() *trace.Collector { return c.traces }

// OnTrace registers fn (nil removes it) to see the whole trace, spans
// included, of every request submitted while it is set whose trace reaches
// the collector (see SetTraceDrop). Only those requests build spans: one
// already in flight when fn is registered is counted by the collector but
// never shown to fn. The trace is valid for the call only — its request
// record is reused — so an observer that keeps it copies it.
func (c *Cluster) OnTrace(fn func(*trace.Trace)) { c.onTrace = fn }

// InFlight returns the number of requests currently executing.
func (c *Cluster) InFlight() int { return c.inFlight }

// --- Deployment: scaling ---------------------------------------------------

// recordCounts stamps the ready-instance count, and drops what the series
// holds from before the CPU signal's look-back (at 0, all but the newest
// point): Utilization, its one reader, reads cpuWork over the same interval.
func (d *Deployment) recordCounts() {
	now := d.cl.Eng.Now()
	ready := 0
	for _, in := range d.instances {
		if in.ready && !in.condemned {
			ready++
		}
	}
	d.readySeries.Add(now, float64(ready))
	d.readySeries.Trim(now - d.cpuWork.Lookback()) // +Inf while nothing is declared: trims nothing
}

// Quota returns the deployment's desired total CPU quota in millicores.
func (d *Deployment) Quota() float64 { return d.quota }

// Replicas returns the number of non-condemned instances (ready or starting).
func (d *Deployment) Replicas() int {
	n := 0
	for _, in := range d.instances {
		if !in.condemned {
			n++
		}
	}
	return n
}

// ReadyReplicas returns the number of ready, non-condemned instances.
func (d *Deployment) ReadyReplicas() int {
	n := 0
	for _, in := range d.instances {
		if in.ready && !in.condemned {
			n++
		}
	}
	return n
}

// perInstanceQuota realizes the paper's round-up semantics (Eq. 7): above
// one CPU unit every instance runs at the full unit (the realized total
// overprovisions by at most one unit); below one unit a single instance is
// vertically sized. Latency is therefore monotone nonincreasing in quota.
func (d *Deployment) perInstanceQuota() float64 {
	if d.quota <= d.cl.Cfg.CPUUnit {
		q := d.quota
		if q < d.cl.Cfg.MinQuota {
			q = d.cl.Cfg.MinQuota
		}
		return q
	}
	return d.cl.Cfg.CPUUnit
}

// SetQuota scales the deployment to total CPU quota millicores, creating or
// condemning instances per Eq. 7 (replicas = ceil(quota/CPUUnit)).
func (d *Deployment) SetQuota(millicores float64) {
	if millicores < d.cl.Cfg.MinQuota {
		millicores = d.cl.Cfg.MinQuota
	}
	d.quota = millicores
	d.SetReplicas(int(math.Ceil(millicores / d.cl.Cfg.CPUUnit)))
}

// SetReplicas scales the deployment to n instances (n ≥ 1). Excess instances
// are condemned (busy ones finish their current request first); missing
// instances are created as one batch with Figure 1 startup latency.
func (d *Deployment) SetReplicas(n int) {
	if n < 1 {
		n = 1
	}
	cur := d.Replicas()
	switch {
	case n > cur:
		// Un-condemn instances first: cheaper than creating new ones.
		need := n - cur
		for _, in := range d.instances {
			if need == 0 {
				break
			}
			if in.condemned {
				in.condemned = false
				need--
			}
		}
		d.createBatch(need)
	case n < cur:
		d.condemn(cur - n)
	}
	d.recordCounts()
	if d.cl.Obs != nil && n != cur {
		d.cl.Obs.Scale(d.Service.Name, cur, n)
	}
	d.dispatch()
}

func (d *Deployment) createBatch(k int) {
	now := d.cl.Eng.Now()
	for j := 1; j <= k; j++ {
		var in *instance
		if n := len(d.free); n > 0 {
			in, d.free = d.free[n-1], d.free[:n-1]
		} else {
			in = new(instance)
			in.readyFn = in.becomeReady
		}
		*in = instance{id: d.nextID, pending: true, readyAt: now + d.cl.Cfg.StartupBaseS + float64(j)*d.cl.Cfg.StartupSlopeS, d: d, readyFn: in.readyFn}
		d.nextID++
		d.instances = append(d.instances, in)
		d.cl.createdTotal++
		d.cl.Eng.At(in.readyAt, in.readyFn)
	}
	if d.cl.Obs != nil && k > 0 {
		d.cl.Obs.Churn(d.Service.Name, k, 0, 0, d.ReadyReplicas())
	}
}

// becomeReady is an instance's ready event. One condemned or crashed while
// starting has already left d.instances and is retired instead.
func (in *instance) becomeReady() {
	in.pending = false
	d := in.d
	if in.condemned || in.crashed {
		d.retire(in)
		return
	}
	in.ready = true
	d.recordCounts()
	if d.cl.Obs != nil {
		d.cl.Obs.Churn(d.Service.Name, 0, 0, 0, d.ReadyReplicas())
	}
	d.dispatch()
}

// retire puts an instance that has left d.instances on the free list once
// nothing can still reach it: its ready event has fired and no frame is
// serving on it. Whichever of the two comes last calls it again.
func (d *Deployment) retire(in *instance) {
	if !in.pending && !in.busy {
		d.free = append(d.free, in)
	}
}

// condemn marks k instances for removal, preferring not-yet-ready ones, then
// idle ready ones, then busy ones (which retire after their current job).
func (d *Deployment) condemn(k int) {
	want := k
	mark := func(pred func(*instance) bool) {
		for i := len(d.instances) - 1; i >= 0 && k > 0; i-- {
			in := d.instances[i]
			if !in.condemned && pred(in) {
				in.condemned = true
				k--
			}
		}
	}
	mark(func(in *instance) bool { return !in.ready })
	mark(func(in *instance) bool { return in.ready && !in.busy })
	mark(func(in *instance) bool { return true })
	d.gc()
	if d.cl.Obs != nil && want-k > 0 {
		d.cl.Obs.Churn(d.Service.Name, 0, want-k, 0, d.ReadyReplicas())
	}
}

// gc drops condemned idle instances from the slice.
func (d *Deployment) gc() {
	kept := d.instances[:0]
	for _, in := range d.instances {
		if in.condemned && !in.busy {
			d.retire(in)
			continue
		}
		kept = append(kept, in)
	}
	d.instances = kept
}

// --- Deployment: serving ---------------------------------------------------

func (d *Deployment) enqueue(f *frame) {
	if d.telemetryOn() {
		d.arrivals.Add(d.cl.Eng.Now(), 1)
	}
	d.queue.push(f)
	d.dispatch()
}

func (d *Deployment) freeInstance() *instance {
	for _, in := range d.instances {
		if in.ready && !in.busy && !in.condemned && !in.crashed {
			return in
		}
	}
	return nil
}

func (d *Deployment) dispatch() {
	for d.queue.n > 0 {
		in := d.freeInstance()
		if in == nil {
			return
		}
		in.busy = true
		d.queue.pop().serve(in)
	}
}

// sampleServiceTime draws the service time in seconds at the current
// per-instance quota, and returns the CPU-seconds consumed.
func (d *Deployment) sampleServiceTime() (svcS, cpuS float64) {
	q := d.perInstanceQuota()
	work := d.Service.WorkMS
	if d.contention > 1 {
		work *= d.contention
	}
	if d.drift > 0 && d.drift != 1 {
		work *= d.drift
	}
	mean := work * 1000 / q // ms
	cv := d.Service.CV
	var workMS float64
	if cv <= 0 {
		workMS = mean
	} else {
		ln := &d.ln
		ln.fit(cv, mean)
		workMS = math.Exp(ln.mu + ln.sigma*d.cl.Eng.Rand().NormFloat64())
	}
	svcS = (d.Service.BaseMS + workMS) / 1000
	cpuS = workMS / 1000 * q / 1000 // CPU-seconds at q millicores
	return svcS, cpuS
}

// lognormal holds the parameters of a lognormal with coefficient of
// variation cv and mean mean: σ² = ln(1+cv²), σ, and μ = ln(mean) − σ²/2.
// fit recomputes only what a changed cv or mean moves — the CV terms once per
// service, μ when the per-instance quota or a work multiplier changes — so
// each request draws from the same bits as computing them afresh.
type lognormal struct{ cv, sigma2, sigma, mean, mu float64 }

func (ln *lognormal) fit(cv, mean float64) {
	if cv != ln.cv {
		ln.cv, ln.sigma2 = cv, math.Log(1+cv*cv)
		ln.sigma = math.Sqrt(ln.sigma2)
		ln.mean = math.NaN() // μ depends on σ² too
	}
	if mean != ln.mean {
		ln.mean, ln.mu = mean, math.Log(mean)-ln.sigma2/2
	}
}

func (d *Deployment) release(in *instance) {
	in.busy = false
	if in.condemned {
		d.gc()
		d.recordCounts()
	}
	d.dispatch()
}

// --- Telemetry accessors ---------------------------------------------------

// Utilization returns the deployment's mean CPU utilization over
// [now-window, now]: CPU-seconds consumed divided by quota-seconds available
// (mean ready replicas × per-instance quota × window). This is what the K8s
// HPA's CPU metric reads.
func (d *Deployment) Utilization(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	used, _ := d.cpuWork.Sum(from, now)
	meanReady := d.readySeries.Mean(from, now)
	if meanReady < 1 {
		meanReady = 1
	}
	avail := meanReady * d.perInstanceQuota() / 1000 * (now - from)
	if avail <= 0 {
		return 0
	}
	return used / avail
}

// CPUPerRequestMS returns the mean CPU consumed per request over the
// trailing window, in millicore·seconds per request ×1000 (i.e. cpu-ms).
// This is the per-service demand signal a cAdvisor-style collector
// observes; it returns 0 when no request completed in the window.
func (d *Deployment) CPUPerRequestMS(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	return d.cpuWork.Mean(from, now) * 1000
}

// ArrivalRate returns the perceived workload in requests/s over the trailing
// window (the per-microservice workload of Fig 7).
func (d *Deployment) ArrivalRate(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	return float64(d.arrivals.Count(from, now)) / (now - from)
}

// SelfLatencyQuantile returns the q-quantile of this service's queue+service
// latency (seconds) over the trailing window.
func (d *Deployment) SelfLatencyQuantile(q, window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	return d.selfLat.Quantile(q, from, now)
}

// ArrivalSeriesRate samples ArrivalRate-like data from recorded arrivals:
// the request rate in [t-window, t].
func (d *Deployment) ArrivalRateAt(t, window float64) float64 {
	from := t - window
	if from < 0 {
		from = 0
	}
	if t <= from {
		return 0
	}
	return float64(d.arrivals.Count(from, t)) / (t - from)
}

// E2ELatencyQuantile returns the q-quantile of end-to-end latency (seconds)
// across all APIs over the trailing window.
func (c *Cluster) E2ELatencyQuantile(q, window float64) float64 {
	now := c.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	return c.e2eAll.Quantile(q, from, now)
}

// E2EWindow exposes the all-API end-to-end latency window.
func (c *Cluster) E2EWindow() *metrics.Window { return c.e2eAll }

// TotalInstances returns the number of non-condemned instances across all
// deployments (ready + starting), the quantity Figures 2, 20 and 21 plot.
func (c *Cluster) TotalInstances() int {
	n := 0
	for _, name := range c.names {
		n += c.deps[name].Replicas()
	}
	return n
}

// RealizedQuota returns the CPU actually deployed for this service:
// replicas × per-instance quota. For quota-driven scaling this is the
// Eq. 7 round-up of the desired quota; for replica-driven scaling (HPA) it
// reflects the live replica count.
func (d *Deployment) RealizedQuota() float64 {
	return float64(d.Replicas()) * d.perInstanceQuota()
}

// TotalRealizedQuota sums RealizedQuota over all deployments.
func (c *Cluster) TotalRealizedQuota() float64 {
	q := 0.0
	for _, name := range c.names {
		q += c.deps[name].RealizedQuota()
	}
	return q
}

// RealizedQuotas returns the per-service realized quota map.
func (c *Cluster) RealizedQuotas() map[string]float64 {
	out := make(map[string]float64, len(c.names))
	for _, name := range c.names {
		out[name] = c.deps[name].RealizedQuota()
	}
	return out
}

// PendingInstances returns the number of created-but-not-yet-ready
// instances across all deployments.
func (c *Cluster) PendingInstances() int {
	n := 0
	for _, name := range c.names {
		d := c.deps[name]
		n += d.Replicas() - d.ReadyReplicas()
	}
	return n
}

// Quotas returns the per-service quota map (copy).
func (c *Cluster) Quotas() map[string]float64 {
	out := make(map[string]float64, len(c.names))
	for _, name := range c.names {
		out[name] = c.deps[name].quota
	}
	return out
}

// InstancesFor returns the replica count Eq. 7 realizes for a desired
// quota — ceil(quota/CPUUnit), floored at the one instance SetQuota always
// keeps. The forecaster's pre-warm accounting uses it to know how many
// instances a quota change will order before actually applying it.
func (c *Cluster) InstancesFor(quota float64) int {
	n := int(math.Ceil(quota / c.Cfg.CPUUnit))
	if n < 1 {
		n = 1
	}
	return n
}

// StartupSeconds returns the Figure-1 readiness latency of an n-instance
// batch: the last instance of a batch of n becomes ready StartupBaseS +
// n·StartupSlopeS seconds after the order.
func (c *Cluster) StartupSeconds(n int) float64 {
	if n < 1 {
		n = 1
	}
	return c.Cfg.StartupBaseS + float64(n)*c.Cfg.StartupSlopeS
}

// ApplyQuotas scales every deployment named in quotas.
func (c *Cluster) ApplyQuotas(quotas map[string]float64) {
	// Deterministic order.
	names := c.applying[:0]
	for n := range quotas {
		names = append(names, n)
	}
	sort.Strings(names)
	c.applying = names
	for _, n := range names {
		c.Deployment(n).SetQuota(quotas[n])
	}
}

// InjectContention slows the named service's CPU work by factor (> 1) for
// duration seconds (svc == "" contends every service), simulating the
// unexpected resource interference of §6: latency spikes with no change in
// workload or allocated quota. Overlapping injections keep the largest
// factor until both expire.
func (c *Cluster) InjectContention(svc string, factor, duration float64) {
	if factor <= 1 {
		return
	}
	apply := func(d *Deployment) {
		prev := d.contention
		if factor > prev {
			d.contention = factor
		}
		c.Eng.After(duration, func() {
			if d.contention == factor {
				d.contention = prev
			}
		})
	}
	if svc == "" {
		for _, name := range c.names {
			apply(c.deps[name])
		}
		return
	}
	apply(c.Deployment(svc))
}

// --- Fault injection (the substrate hooks internal/chaos drives) -----------

// KillInstances abruptly terminates up to n instances of the deployment — a
// crash, not a graceful condemnation. Busy instances lose their in-flight
// job (the call layer retries it with backoff), and the deployment
// immediately starts replacement instances to meet its desired quota,
// paying the Figure-1 startup delay. Returns how many were killed.
func (d *Deployment) KillInstances(n int) int {
	killed := 0
	// Prefer ready instances: a correlated failure takes out running pods
	// first. Fall back to still-starting ones.
	for _, pred := range []func(*instance) bool{
		func(in *instance) bool { return in.ready },
		func(in *instance) bool { return true },
	} {
		for _, in := range d.instances {
			if killed == n {
				break
			}
			if in.crashed || in.condemned || !pred(in) {
				continue
			}
			in.crashed = true
			in.ready = false
			killed++
		}
	}
	if killed == 0 {
		return 0
	}
	d.cl.killedTotal += killed
	kept := d.instances[:0]
	for _, in := range d.instances {
		if in.crashed {
			d.retire(in)
			continue
		}
		kept = append(kept, in)
	}
	d.instances = kept
	// Replace the lost capacity, like a ReplicaSet restoring its desired
	// count: the restart pays the full startup latency.
	want := int(math.Ceil(d.quota / d.cl.Cfg.CPUUnit))
	if want < 1 {
		want = 1
	}
	if missing := want - d.Replicas(); missing > 0 {
		d.createBatch(missing)
	}
	d.recordCounts()
	if d.cl.Obs != nil {
		d.cl.Obs.Churn(d.Service.Name, 0, 0, killed, d.ReadyReplicas())
	}
	d.dispatch()
	return killed
}

// SuppressTelemetry black-holes the deployment's telemetry for duration
// seconds: CPU, self-latency and arrival observations are dropped, so
// trailing-window reads go empty or stale — a dead metrics agent.
func (d *Deployment) SuppressTelemetry(duration float64) {
	until := d.cl.Eng.Now() + duration
	if until > d.suppressUntil {
		d.suppressUntil = until
	}
}

func (d *Deployment) telemetryOn() bool { return d.cl.Eng.Now() >= d.suppressUntil }

// KillInstances kills up to n instances of the named service.
func (c *Cluster) KillInstances(svc string, n int) int {
	return c.Deployment(svc).KillInstances(n)
}

// CrashFraction kills ceil(frac × replicas) instances of every deployment —
// a correlated failure such as a node loss or an availability-zone outage.
// Returns the total number of instances killed.
func (c *Cluster) CrashFraction(frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	total := 0
	for _, name := range c.names {
		d := c.deps[name]
		total += d.KillInstances(int(math.Ceil(frac * float64(d.Replicas()))))
	}
	return total
}

// SuppressFrontendTelemetry black-holes the frontend's arrival and
// end-to-end latency windows for duration seconds: every signal the
// proactive controller reads goes silent while requests keep flowing.
func (c *Cluster) SuppressFrontendTelemetry(duration float64) {
	until := c.Eng.Now() + duration
	if until > c.frontSuppressUntil {
		c.frontSuppressUntil = until
	}
}

func (c *Cluster) frontendTelemetryOn() bool { return c.Eng.Now() >= c.frontSuppressUntil }

// SetArrivalSampling keeps only fraction keep (0..1) of frontend arrival
// observations, on a deterministic pattern — a telemetry pipeline that
// samples or drops the workload signal, so rate reads under-report by
// 1/keep. 1 restores full fidelity.
func (c *Cluster) SetArrivalSampling(keep float64) {
	if keep < 0 {
		keep = 0
	}
	if keep > 1 {
		keep = 1
	}
	c.arrivalKeep = keep
	c.arrivalAcc = 0
}

// SetTraceDrop makes each completed trace vanish before reaching the
// collector with probability p (0 restores lossless collection).
func (c *Cluster) SetTraceDrop(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.traceDropP = p
}

// InjectSurfaceDrift permanently multiplies the named service's CPU work
// per request by factor (svc == "" applies it to every service). This is a
// drift of the queueing surface itself, not a transient anomaly: the
// latency-vs-quota relationship the GNN learned no longer holds, and stays
// wrong until a model retrained on post-drift telemetry replaces it.
// Repeated injections compose multiplicatively.
func (c *Cluster) InjectSurfaceDrift(svc string, factor float64) {
	if factor <= 0 {
		return
	}
	apply := func(d *Deployment) {
		if d.drift <= 0 {
			d.drift = 1
		}
		d.drift *= factor
	}
	if svc == "" {
		for _, name := range c.names {
			apply(c.deps[name])
		}
		return
	}
	apply(c.Deployment(svc))
}

// CorruptTelemetry injects n bogus observations into the frontend telemetry
// at the current instant: n end-to-end latency samples of latS seconds into
// the e2e window and n phantom arrivals into every API's arrival window — a
// scrape glitch or a poisoned exporter, not anything the cluster actually
// served. Downstream consumers that read these windows raw see a latency
// spike and a rate surge that never happened.
func (c *Cluster) CorruptTelemetry(latS float64, n int) {
	now := c.Eng.Now()
	for i := 0; i < n; i++ {
		c.e2eAll.Add(now, latS)
	}
	for _, api := range c.App.APIs {
		w := c.apis[api.Name].arrivals
		for i := 0; i < n; i++ {
			w.Add(now, 1)
		}
	}
}

// KilledTotal returns the cumulative number of instances killed by fault
// injection.
func (c *Cluster) KilledTotal() int { return c.killedTotal }

// FailedRequests returns how many requests completed with at least one
// failed call (a degraded response).
func (c *Cluster) FailedRequests() int { return c.failedReqs }

// LastArrivalAt returns the timestamp of the most recent recorded frontend
// arrival across all APIs, and whether any exists — the freshness signal a
// stale-telemetry detector compares against the clock.
func (c *Cluster) LastArrivalAt() (float64, bool) {
	best, any := 0.0, false
	for _, st := range c.apis {
		if at, ok := st.arrivals.LastAt(); ok && (!any || at > best) {
			best, any = at, true
		}
	}
	return best, any
}

// LastDeploymentTelemetryAt returns the timestamp of the most recent
// deployment-level telemetry observation (arrivals or CPU samples) across
// all deployments, and whether any exists. A controller seeing the frontend
// signal go dark uses this as corroborating evidence that the cluster is
// still serving traffic — a frontend blackhole leaves deployment telemetry
// flowing, while a genuine traffic stop silences both.
func (c *Cluster) LastDeploymentTelemetryAt() (float64, bool) {
	best, any := 0.0, false
	for _, d := range c.deps {
		if at, ok := d.arrivals.LastAt(); ok && (!any || at > best) {
			best, any = at, true
		}
		if at, ok := d.cpuWork.LastAt(); ok && (!any || at > best) {
			best, any = at, true
		}
	}
	return best, any
}
