package cluster

import (
	"fmt"
	"math"

	"graf/internal/app"
	"graf/internal/metrics"
	"graf/internal/trace"
)

// apiState is what the cluster keeps per API: its compiled call tree and its
// frontend telemetry.
type apiState struct {
	name     string
	root     *node
	arrivals *metrics.Window // frontend arrivals
}

// node is one app.Call compiled for this cluster: the deployment it runs on,
// that service's index among the cluster's services (and in a request's visit
// counts), its repetitions and its non-empty stages.
type node struct {
	d      *Deployment
	svc    int
	times  int
	stages [][]*node
}

// compile builds the node tree of call once, so that executing it looks
// nothing up by name.
func (c *Cluster) compile(call *app.Call) *node {
	n := &node{d: c.Deployment(call.Service), svc: c.App.ServiceIndex(call.Service), times: call.Times()}
	for _, stage := range call.Stages {
		if len(stage) == 0 {
			continue
		}
		children := make([]*node, len(stage))
		for i, child := range stage {
			children[i] = c.compile(child)
		}
		n.stages = append(n.stages, children)
	}
	return n
}

// request is one Submit in flight. Records are recycled through
// Cluster.freeReqs. A request counts its completed invocations per service,
// which is all the trace collector keeps; only a request submitted while an
// OnTrace observer is set builds the spans of its trace, in a Trace the
// record keeps once it has one.
type request struct {
	api    *apiState
	start  float64
	visits []int32 // invocations per service that returned, indexed like Cluster.names
	onDone func(latency float64)
	tr     *trace.Trace // valid while traced
	errors int32        // calls that exhausted their retries
	traced bool         // an observer was set at Submit
}

// frame is one invocation of a call-tree node within a request: Times()
// sequential repetitions of (queue → service → stages). Each repetition is
// one RPC at the call layer: an attempt lost to a crashed instance, or stuck
// queued past the queue timeout, is retried with exponential backoff up to
// Cfg.MaxRetries times; exhausted retries fail the call and the request
// continues degraded (the caller swallows the error), counted on the
// request.
//
// The frame is the unit the deployment queues and the event engine calls
// back: serviceDone and retry are bound once, when the frame object is made,
// so scheduling a frame's next step allocates nothing. Frames are recycled
// through Cluster.freeFrames when their call returns. At most one event is
// ever pending for a frame that is in service or backing off, and it is the
// one that moves it on, so those events need no guard; the queue-timeout
// event is the exception (see attempt).
type frame struct {
	cl     *Cluster
	req    *request
	parent *frame // nil for the API's root call
	node   *node

	rep int     // repetition in progress
	enq float64 // when it began: the span's Start, retries included

	try      int     // attempt of this repetition, 0..Cfg.MaxRetries
	attempts uint64  // attempts this frame object ever made; the timeout token
	queuedAt float64 // when this attempt joined the queue
	served   bool    // this attempt was dispatched to an instance
	queued   float64 // how long it waited
	svcS     float64 // its service time
	cpuS     float64 // and CPU-seconds
	inst     *instance

	stage     int // stage of node.stages in progress
	remaining int // calls of that stage still running

	serviceDone func()
	retry       func()
}

func (c *Cluster) newFrame() *frame {
	if n := len(c.freeFrames); n > 0 {
		f := c.freeFrames[n-1]
		c.freeFrames = c.freeFrames[:n-1]
		return f
	}
	c.framesMade++
	f := &frame{cl: c}
	f.serviceDone = f.onServiceDone
	f.retry = f.attempt
	return f
}

// Submit injects one request for the named API at the current simulated
// time. onDone, if non-nil, receives the end-to-end latency in seconds when
// the request completes.
func (c *Cluster) Submit(api string, onDone func(latency float64)) {
	st := c.apis[api]
	if st == nil {
		panic(fmt.Sprintf("cluster: unknown API %q", api))
	}
	req := c.newRequest()
	c.nextTraceID++
	req.api, req.start, req.onDone = st, c.Eng.Now(), onDone
	c.recordArrival(st, req.start)
	if req.traced = c.onTrace != nil; req.traced {
		if req.tr == nil {
			req.tr = &trace.Trace{}
		}
		*req.tr = trace.Trace{ID: c.nextTraceID, API: api, Spans: req.tr.Spans[:0]}
	}
	c.inFlight++
	c.exec(st.root, req, nil)
}

// newRequest takes a request record off the free list, or makes one.
func (c *Cluster) newRequest() *request {
	if n := len(c.freeReqs); n > 0 {
		req := c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
		return req
	}
	return &request{visits: make([]int32, len(c.names))}
}

// recordArrival stamps one frontend arrival, subject to the telemetry
// fault taps: a full blackhole window drops it, and arrival sampling keeps
// only a deterministic arrivalKeep fraction.
func (c *Cluster) recordArrival(st *apiState, at float64) {
	if !c.frontendTelemetryOn() {
		return
	}
	if c.arrivalKeep < 1 {
		c.arrivalAcc += c.arrivalKeep
		if c.arrivalAcc < 1 {
			return
		}
		c.arrivalAcc--
	}
	st.arrivals.Add(at, 1)
}

// complete runs when a request's root call returns.
func (c *Cluster) complete(req *request) {
	now := c.Eng.Now()
	lat := now - req.start
	if c.frontendTelemetryOn() {
		c.e2eAll.Add(now, lat)
	}
	if c.traceDropP > 0 && c.Eng.Rand().Float64() < c.traceDropP {
		c.droppedTraces++
	} else {
		c.traces.Collect(req.api.name, req.visits)
		if req.traced && c.onTrace != nil {
			req.tr.Errors = int(req.errors)
			c.onTrace(req.tr)
		}
	}
	if req.errors > 0 {
		c.failedReqs++
	}
	c.inFlight--
	onDone := req.onDone
	req.onDone, req.errors = nil, 0
	clear(req.visits)
	c.freeReqs = append(c.freeReqs, req)
	if onDone != nil {
		onDone(lat)
	}
}

// exec starts one call-tree node of req on a frame; the frame reports to
// parent (or completes the request) when every repetition has returned.
func (c *Cluster) exec(n *node, req *request, parent *frame) {
	f := c.newFrame()
	f.req, f.parent, f.node = req, parent, n
	f.rep = 0
	f.startRep()
}

func (f *frame) startRep() {
	if f.rep == f.node.times {
		f.done()
		return
	}
	f.enq = f.cl.Eng.Now()
	f.try = 0
	f.attempt()
}

// attempt queues the frame at its deployment. With a queue timeout
// configured it also arms the timeout, which — unlike every other event
// aimed at a frame — can outlive the attempt, the call and the frame's
// current use: it carries the attempt's number and does nothing unless the
// frame is still waiting on that very attempt.
func (f *frame) attempt() {
	c := f.cl
	f.attempts++
	f.served = false
	f.queuedAt = c.Eng.Now()
	if c.Cfg.QueueTimeoutS > 0 {
		token := f.attempts
		c.Eng.After(c.Cfg.QueueTimeoutS, func() {
			if f.attempts != token || f.served {
				return
			}
			f.node.d.queue.remove(f)
			f.retryOrFail()
		})
	}
	f.node.d.enqueue(f)
}

// serve runs when the deployment hands the waiting frame to instance in.
func (f *frame) serve(in *instance) {
	eng := f.cl.Eng
	f.served = true
	f.inst = in
	f.queued = eng.Now() - f.queuedAt
	f.svcS, f.cpuS = f.node.d.sampleServiceTime()
	eng.After(f.svcS, f.serviceDone)
}

func (f *frame) onServiceDone() {
	in := f.inst
	f.inst = nil
	if in.crashed {
		// The instance died under the request: its work and telemetry are
		// lost, and this frame was the last thing that could reach it.
		in.busy = false
		f.node.d.retire(in)
		f.retryOrFail()
		return
	}
	d := f.node.d
	if d.telemetryOn() {
		now := f.cl.Eng.Now()
		d.cpuWork.Add(now, f.cpuS)
		d.selfLat.Add(now, f.queued+f.svcS)
	}
	d.release(in)
	f.stage = 0
	f.runStages()
}

// retryOrFail runs after a failed attempt: backoff-retry while budget
// remains, otherwise fail the call. Each attempt fails at most once (the
// queue-timeout and crash paths are mutually exclusive via frame.served), so
// a completed request is never duplicated by a retry.
func (f *frame) retryOrFail() {
	c := f.cl
	f.node.d.failedAttempts++
	if f.try < c.Cfg.MaxRetries {
		backoff := c.Cfg.RetryBaseS * math.Pow(2, float64(f.try))
		f.try++
		c.Eng.After(backoff, f.retry)
		return
	}
	c.failedCalls++
	f.req.errors++
	f.rep++
	f.startRep()
}

// runStages executes node.stages[f.stage:] sequentially; within a stage all
// children run in parallel. After the last stage it counts the visit (and
// records the span of a traced request) and moves to the next repetition.
func (f *frame) runStages() {
	if stages := f.node.stages; f.stage < len(stages) {
		stage := stages[f.stage]
		f.remaining = len(stage)
		for _, child := range stage {
			f.cl.exec(child, f.req, f)
		}
		return
	}
	req := f.req
	req.visits[f.node.svc]++
	if req.traced {
		parent := ""
		if f.parent != nil {
			parent = f.parent.node.d.Service.Name
		}
		tr := req.tr
		tr.Spans = append(tr.Spans, trace.Span{
			Service: f.node.d.Service.Name, Parent: parent,
			Start: f.enq, End: f.cl.Eng.Now(), Queue: f.queued,
		})
	}
	f.rep++
	f.startRep()
}

// done returns the call: the frame goes back to the free list and its
// parent's stage (or the request) moves on.
func (f *frame) done() {
	c, req, parent := f.cl, f.req, f.parent
	f.req, f.parent = nil, nil
	c.freeFrames = append(c.freeFrames, f)
	if parent == nil {
		c.complete(req)
		return
	}
	parent.remaining--
	if parent.remaining == 0 {
		parent.stage++
		parent.runStages()
	}
}

// frameQueue is a deployment's FIFO of waiting frames, a ring that grows by
// doubling and never shrinks.
type frameQueue struct {
	buf  []*frame // len is zero or a power of two
	head int
	n    int
}

func (q *frameQueue) push(f *frame) {
	if q.n == len(q.buf) {
		grown := make([]*frame, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
}

func (q *frameQueue) pop() *frame {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return f
}

// remove takes f out of the queue, keeping the order of the rest. Queue
// timeouts expire in arrival order, so f is at or near the head.
func (q *frameQueue) remove(f *frame) {
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)&mask] != f {
			continue
		}
		for ; i > 0; i-- {
			q.buf[(q.head+i)&mask] = q.buf[(q.head+i-1)&mask]
		}
		q.pop()
		return
	}
	panic("cluster: frame to remove is not queued")
}
