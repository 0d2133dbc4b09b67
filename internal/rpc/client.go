package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graf/internal/obs"
	"graf/internal/overload"
)

// traceparentHeader carries the caller's span context on every request, so
// the shard can continue the trace server-side (DESIGN.md §3i).
const traceparentHeader = "Traceparent"

// The router's call discipline: a per-attempt timeout, and bounded retries
// under exponential backoff with full jitter that stop at transportAttempts
// consecutive transport failures, so one dead shard costs a call at most
// three failed attempts before the router's heartbeat investigation decides
// whether it is dead. The discipline keeps no state across calls. Each
// value is the one bench.planeDrill, grafbench's fleet-rpc and
// router-failover drill, set before it was a constant.
const (
	// attemptTimeout bounds one wire attempt, heartbeat probes included.
	// The slowest /v1/tick of `grafbench -exp fleet-rpc -scale standard`
	// (96 tenants on two shards, then all 96 on the survivor) took 122 ms,
	// and the slowest restoring /v1/admit of the rpc tests (48 ticks
	// re-executed through a lifecycle retrain, under -race) 1.3 s, on a
	// 2-vCPU Xeon: 5 s covers both with margin. A retry after a timeout
	// lands in the idempotent path, which restores nothing and so verifies
	// nothing, so the bound must clear the slowest restore, not the typical
	// tick. A shard that hangs rather than dies costs 3 × 5 s of tick
	// attempts and 3 × 5 s of probes before it is declared dead.
	attemptTimeout = 5 * time.Second
	// retries is how many times a failed attempt is retried: a call makes
	// at most 1+retries attempts. Transport failures end a call at the
	// third attempt, so the last two run only after overloaded answers,
	// which reset the count: four Retry-After waits let a call ride out
	// 200 ms of shedding.
	retries = 4
	// backoffBase and backoffMax bound the sleep before retry n, uniform in
	// (0, min(backoffMax, backoffBase·2^(n-1))]. A loopback attempt fails
	// in well under a millisecond, so a longer backoff only lengthens a
	// round under seeded drops.
	backoffBase = 2 * time.Millisecond
	backoffMax  = 20 * time.Millisecond
	// transportAttempts consecutive transport failures (refused, reset,
	// timed out or dropped) end a call; any answer from the shard, whatever
	// its status, resets the count. A 10% drop rate ends 0.1% of calls this
	// way, and the router's heartbeat then finds the shard alive and
	// re-ticks it, so a droppy patch never becomes a false death.
	transportAttempts = 3
)

// FaultInjector intercepts outbound control-plane requests — the seam
// chaos.NetInjector plugs into. op is the endpoint name ("tick", "admit",
// ...). shard is the target's stable name: its router slot ("0", "1", ...)
// once a Router has named it, its address for a bare Client — a verdict keyed
// on an ephemeral port would differ on every run. attempt counts the
// attempts at op on that shard since the round began, across calls: the
// re-tick after a heartbeat-ok investigation continues the sequence, it
// does not replay the draws that ended the failed call. Returning drop
// simulates the network losing the request; a positive delay is injected
// before the attempt.
type FaultInjector interface {
	Intercept(op, shard string, round, attempt int) (drop bool, delay time.Duration)
}

// ErrDropped is the injected-fault "network ate it" error.
var errDropped = fmt.Errorf("rpc: request dropped (injected fault)")

// errBudgetExhausted is returned when the deadline installed by SetDeadline
// (the router stamps one per round) cannot fit another attempt or backoff
// sleep. It means "out of time", not "shard broken" — callers treat it like
// shed work, not failure.
var errBudgetExhausted = errors.New("rpc: op budget exhausted")

// errFencedEpoch is the typed match target for a shard's 409 stale-epoch
// rejection: the caller's Graf-Epoch is older than the highest the shard has
// seen, meaning a newer router generation has taken over. errors.Is(err,
// errFencedEpoch) matches through the remoteError the wire rejection arrives
// as. Fencing is fatal to the sender — it has lost leadership and must stop
// mutating the fleet, not retry.
var errFencedEpoch = errors.New("rpc: fenced stale epoch")

// Client is the router's HTTP client: typed wrappers over the wire protocol
// with retry/backoff/jitter. Safe for concurrent use.
type Client struct {
	http  *http.Client
	Fault FaultInjector
	// Obs, when set, records request latency and attempt outcomes as
	// graf_rpc_* metrics. Tracer, when set, wraps every call in an
	// "rpc/<op>" span with per-attempt child spans, and stamps the
	// traceparent header on the wire. Both are nil-safe no-ops; set them
	// before first use.
	Obs    *obs.RPCObs
	Tracer *obs.Tracer

	// epoch, when non-zero, rides every request as the Graf-Epoch header —
	// the router generation's fencing token (atomic: attempts read it
	// without c.mu).
	epoch atomic.Uint64

	mu       sync.Mutex
	rng      *rand.Rand
	round    int
	deadline time.Time
	// Fault-injection coordinates: names maps a shard address to its slot
	// name, draws counts this round's injected attempts per (op, shard).
	names map[string]string
	draws map[string]int
}

// newClient builds a client whose backoff jitter is drawn from seed. fault
// may be nil.
func newClient(seed int64, fault FaultInjector) *Client {
	return &Client{
		http:  &http.Client{Timeout: attemptTimeout},
		Fault: fault,
		rng:   rand.New(rand.NewSource(seed)),
		names: map[string]string{},
		draws: map[string]int{},
	}
}

// nameShard tells fault injection which router slot serves at addr.
func (c *Client) nameShard(addr string, slot int) {
	c.mu.Lock()
	c.names[addr] = strconv.Itoa(slot)
	c.mu.Unlock()
}

// faultCoords resolves one attempt's fault-injection coordinates and
// advances the (op, shard) attempt count.
func (c *Client) faultCoords(op, addr string) (shard string, round, attempt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	shard = addr
	if name, ok := c.names[addr]; ok {
		shard = name
	}
	key := op + "\x00" + shard
	attempt = c.draws[key]
	c.draws[key]++
	return shard, c.round, attempt
}

// SetEpoch installs the router generation's fencing epoch; every subsequent
// request carries it in the Graf-Epoch header. Zero (the default) sends no
// header — epoch-unaware callers keep working against fenced shards.
func (c *Client) SetEpoch(e uint64) {
	c.epoch.Store(e)
}

// SetRound tells the client the current router round — the coordinate fault
// injection keys on, so chaos scenarios are expressed in rounds rather than
// wall time.
func (c *Client) SetRound(r int) {
	c.mu.Lock()
	if r != c.round {
		c.round = r
		clear(c.draws)
	}
	c.mu.Unlock()
}

// SetDeadline installs an absolute end-to-end deadline every subsequent call
// must fit within — attempts, backoff sleeps and Retry-After waits
// included. The router stamps one per round so slow shards cannot stretch a
// round past its budget. An attempt (or sleep) that cannot fit is refused
// with errBudgetExhausted instead of started, and the remaining budget is
// forwarded to the shard in the Graf-Deadline-Ms header so it can shed work
// that would complete past the deadline. The zero time clears it (the
// per-attempt timeout still applies).
func (c *Client) SetDeadline(t time.Time) {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
}

// callDeadline is the deadline installed by SetDeadline (zero = unbounded).
func (c *Client) callDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline
}

// backoff returns the full-jitter sleep before retry attempt n (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	max := min(backoffBase<<uint(attempt-1), backoffMax)
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max)) + 1)
	c.mu.Unlock()
	return d
}

// call performs one logical request with the full discipline. out may be
// nil; parent, when given, is the span the call's "rpc/<op>" span nests
// under (the trace then continues server-side via the traceparent header).
func (c *Client) call(shard, method, path, op string, in, out any, parent ...obs.SpanContext) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("rpc: encode %s: %w", op, err)
		}
	}
	span := c.Tracer.StartChild(optCtx(parent), "rpc/"+op).SetTrack(shard)
	start := time.Now()
	err := c.callLoop(shard, method, path, op, body, out, span)
	c.Obs.Request(op, shard, time.Since(start).Seconds(), err == nil)
	if err != nil {
		span.SetAttr("error", 1)
	}
	span.End()
	return err
}

// callLoop is call's retry loop, running inside the call span. The loop is
// budget-aware end to end: the installed deadline is read once, every
// sleep (backoff or Retry-After) that would overrun it is refused, and the
// remaining budget rides to the shard in the Graf-Deadline-Ms header. It
// stops after transportAttempts consecutive transport failures, checked
// after the budget so a call the budget cannot fit is still shed.
func (c *Client) callLoop(shard, method, path, op string, body []byte, out any, span *obs.ActiveSpan) error {
	deadline := c.callDeadline()
	var lastErr error
	attempt, failures := 0, 0 // failures: consecutive transport failures
	for ; attempt <= retries; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt)
			if wait := retryAfter(lastErr); wait > 0 {
				d = wait // the shard told us when to come back
			}
			if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
				c.Obs.Attempt(op, "budget")
				span.Event("budget-exhausted", fmt.Sprintf("attempt %d", attempt))
				return fmt.Errorf("%w: %s %s: %v", errBudgetExhausted, op, shard, lastErr)
			}
			if failures == transportAttempts {
				break
			}
			time.Sleep(d)
		}
		if c.Fault != nil {
			name, round, n := c.faultCoords(op, shard)
			drop, delay := c.Fault.Intercept(op, name, round, n)
			if delay > 0 {
				time.Sleep(delay)
			}
			if drop {
				lastErr = errDropped
				failures++
				c.Obs.Attempt(op, "dropped")
				span.Event("attempt-dropped", fmt.Sprintf("attempt %d", attempt))
				continue
			}
		}
		var remaining time.Duration
		if !deadline.IsZero() {
			if remaining = time.Until(deadline); remaining <= 0 {
				c.Obs.Attempt(op, "budget")
				span.Event("budget-exhausted", fmt.Sprintf("attempt %d", attempt))
				return fmt.Errorf("%w: %s %s: %v", errBudgetExhausted, op, shard, lastErr)
			}
		}
		as := c.Tracer.StartChild(span.Context(), "rpc/attempt").
			SetTrack(shard).SetAttr("attempt", float64(attempt))
		lastErr = c.attempt(shard, method, path, body, out, remaining, as.Context())
		outcome := "ok"
		if lastErr != nil {
			outcome = "error"
			if re, isRemote := lastErr.(*remoteError); isRemote && re.Overloaded {
				outcome = "overloaded"
			}
			as.SetAttr("error", 1)
		}
		c.Obs.Attempt(op, outcome)
		as.End()
		if lastErr == nil {
			return nil
		}
		re, isRemote := lastErr.(*remoteError)
		switch {
		case !isRemote:
			failures++
		case re.Overloaded:
			// Backpressure, not failure: the shard answered, so the
			// transport count restarts, and Retry-After is honored on the
			// next pass (budget permitting) instead of giving up.
			failures = 0
			span.Event("overloaded", fmt.Sprintf("retry-after %dms", re.RetryAfterMS))
		default:
			// The shard answered and rejected the request: retrying the
			// same request cannot succeed, and it is not a shard-health
			// signal either.
			return lastErr
		}
	}
	return fmt.Errorf("rpc: %s %s after %d attempts: %w", op, shard, attempt, lastErr)
}

// retryAfter extracts the shard's backpressure hint from an overloaded
// rejection; 0 when the error carries none.
func retryAfter(err error) time.Duration {
	var re *remoteError
	if errors.As(err, &re) && re.Overloaded && re.RetryAfterMS > 0 {
		return time.Duration(re.RetryAfterMS) * time.Millisecond
	}
	return 0
}

// isOverloaded reports whether err is a shard's admission-control rejection —
// backpressure to be absorbed, not a failure to investigate.
func isOverloaded(err error) bool {
	var re *remoteError
	return errors.As(err, &re) && re.Overloaded
}

// isExpired reports whether err is a shard's deadline rejection: the work's
// propagated budget was spent before the shard would have executed it.
func isExpired(err error) bool {
	var re *remoteError
	return errors.As(err, &re) && re.Expired
}

// IsFenced reports whether err is a shard's stale-epoch rejection — the
// sender has lost router leadership and must stop mutating the fleet.
// Equivalent to errors.Is(err, errFencedEpoch).
func IsFenced(err error) bool {
	var re *remoteError
	return errors.As(err, &re) && re.Fenced
}

// optCtx unpacks the variadic parent-span parameter of the exported calls.
func optCtx(parents []obs.SpanContext) obs.SpanContext {
	if len(parents) == 0 {
		return obs.SpanContext{}
	}
	return parents[0]
}

// remoteError is an application-level rejection from a shard (HTTP 4xx/5xx
// with an error body) — distinguished from transport errors, which drive
// retries and end a call at transportAttempts. Overloaded/RetryAfterMS/
// Expired/Fenced mirror the wire errorResponse; use
// isOverloaded/isExpired/IsFenced to classify.
type remoteError struct {
	Shard        string
	Status       int
	Msg          string
	Overloaded   bool
	RetryAfterMS int
	Expired      bool
	// Fenced marks a stale-epoch rejection; Epoch is the shard's fence (the
	// highest epoch it has seen — ours was lower).
	Fenced bool
	Epoch  uint64
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("rpc: shard %s: %d %s", e.Shard, e.Status, e.Msg)
}

// Is lets errors.Is match the typed sentinels a remote rejection can carry:
// errors.Is(err, errFencedEpoch) is true for a fenced rejection.
func (e *remoteError) Is(target error) bool {
	return target == errFencedEpoch && e.Fenced
}

// maxResponseBytes caps what one response body may be read to.
const maxResponseBytes = 64 << 20

// attempt performs one wire attempt. remaining, when positive, is the call's
// leftover end-to-end budget: it rides to the shard as Graf-Deadline-Ms and
// additionally bounds this attempt below attemptTimeout.
func (c *Client) attempt(shard, method, path string, body []byte, out any, remaining time.Duration, trace ...obs.SpanContext) error {
	req, err := http.NewRequest(method, "http://"+shard+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header[contentType] = jsonContent
	}
	if tc := optCtx(trace); tc.Valid() {
		req.Header.Set(traceparentHeader, tc.Traceparent())
	}
	if e := c.epoch.Load(); e > 0 {
		req.Header.Set(epochHeader, strconv.FormatUint(e, 10))
	}
	if remaining > 0 {
		req.Header.Set(overload.HeaderDeadlineMS, overload.FormatRemaining(remaining))
		if remaining < attemptTimeout {
			ctx, cancel := context.WithTimeout(context.Background(), remaining)
			defer cancel()
			req = req.WithContext(ctx)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBytes)); err != nil {
		return err
	}
	data := buf.Bytes() // json.Unmarshal and string(data) copy out of it
	if resp.StatusCode/100 != 2 {
		var er errorResponse
		msg := string(data)
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &remoteError{Shard: shard, Status: resp.StatusCode, Msg: msg,
			Overloaded: er.Overloaded, RetryAfterMS: er.RetryAfterMS, Expired: er.Expired,
			Fenced: er.Fenced, Epoch: er.Epoch}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("rpc: decode response: %w", err)
		}
	}
	return nil
}

// Health probes a shard with one attempt. It skips the fault injector — it
// IS the probe the router uses to decide whether an unresponsive shard is
// dead — and carries no deadline: health must answer even on a shard that
// is shedding work.
func (c *Client) Health(shard string, parent ...obs.SpanContext) (HealthResponse, error) {
	var out HealthResponse
	span := c.Tracer.StartChild(optCtx(parent), "rpc/health").SetTrack(shard)
	err := c.attempt(shard, http.MethodGet, "/healthz", nil, &out, 0, span.Context())
	if err != nil {
		span.SetAttr("error", 1)
	}
	span.End()
	c.Obs.Attempt("health", map[bool]string{true: "ok", false: "error"}[err == nil])
	return out, err
}

// Configure installs the fleet spec on a shard.
func (c *Client) Configure(shard string, spec Spec, parent ...obs.SpanContext) error {
	return c.call(shard, http.MethodPost, "/v1/configure", "configure", configureRequest{Spec: spec}, &configureResponse{}, parent...)
}

// Admit places (or restores) a tenant on a shard.
func (c *Client) Admit(shard, id string, ticks int, parent ...obs.SpanContext) (AdmitResponse, error) {
	var out AdmitResponse
	err := c.call(shard, http.MethodPost, "/v1/admit", "admit", admitRequest{ID: id, Ticks: ticks}, &out, parent...)
	return out, err
}

// Evict drains a tenant off a shard.
func (c *Client) Evict(shard, id string, checkpoint bool, parent ...obs.SpanContext) (EvictResponse, error) {
	var out EvictResponse
	err := c.call(shard, http.MethodPost, "/v1/evict", "evict", evictRequest{ID: id, Checkpoint: checkpoint}, &out, parent...)
	return out, err
}

// Tick advances a shard to the absolute round and decodes the answer into
// out, reusing out.Statuses' backing array. encoding/json decodes into the
// elements it finds there and leaves a field the answer omits (Degraded,
// Brownout) as it was, so every element is zeroed first.
func (c *Client) Tick(shard string, round int, out *TickResponse, parent ...obs.SpanContext) error {
	clear(out.Statuses[:cap(out.Statuses)])
	*out = TickResponse{Statuses: out.Statuses[:0]}
	return c.call(shard, http.MethodPost, "/v1/tick", "tick", tickRequest{Round: round}, out, parent...)
}

// Tenants lists the shard's tenants.
func (c *Client) Tenants(shard string, parent ...obs.SpanContext) (TenantsResponse, error) {
	var out TenantsResponse
	err := c.call(shard, http.MethodGet, "/v1/tenants", "tenants", nil, &out, parent...)
	return out, err
}

// Traces fetches the shard's retained trace spans, for cross-process
// stitching by the router.
func (c *Client) Traces(shard string, parent ...obs.SpanContext) (TracesResponse, error) {
	var out TracesResponse
	err := c.call(shard, http.MethodGet, "/v1/traces", "traces", nil, &out, parent...)
	return out, err
}

// Checkpoint snapshots every tenant on the shard.
func (c *Client) Checkpoint(shard string, parent ...obs.SpanContext) (CheckpointResponse, error) {
	var out CheckpointResponse
	err := c.call(shard, http.MethodPost, "/v1/checkpoint", "checkpoint", nil, &out, parent...)
	return out, err
}
