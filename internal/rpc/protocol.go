package rpc

import (
	"bytes"
	"encoding/json"
	"sync"

	"graf/internal/obs"
)

// Wire protocol (DESIGN.md §3h). Every endpoint is HTTP/JSON; errors are
// {"error": "..."} with a non-2xx status. Requests carry absolute state
// (round indices, tick counts) rather than deltas, so any request can be
// retried or duplicated without corrupting a shard — the shard applies it
// idempotently.

// TenantStatus is the per-tenant accounting a shard reports after every
// operation. AuditLen/AuditFNV fingerprint the tenant's full audit stream;
// the router uses them to verify lossless migration and recovery without
// moving log bytes over the wire.
type TenantStatus struct {
	ID       string  `json:"id"`
	Ticks    int     `json:"ticks"`
	P99      float64 `json:"p99"`
	ViolS    float64 `json:"viol_s"`
	Degraded bool    `json:"degraded,omitempty"`
	AuditLen int     `json:"audit_len"`
	AuditFNV uint64  `json:"audit_fnv"`
	// Brownout is the tenant's current degradation-ladder rung
	// (0=full … 3=hold); see internal/overload.
	Brownout int `json:"brownout,omitempty"`
}

// HealthResponse answers GET /healthz — the router's heartbeat probe. It is
// served entirely from atomic mirrors, never from under the fleet mutex, so
// a long round cannot be mistaken for a dead shard.
type HealthResponse struct {
	OK      bool   `json:"ok"`
	PID     int    `json:"pid"`
	Tenants int    `json:"tenants"`
	Round   int    `json:"round"`
	Uptime  string `json:"uptime"`
	// Overload accounting, served from the admission gate and shed counters.
	Inflight        int   `json:"inflight,omitempty"`
	Shed            int64 `json:"shed,omitempty"`
	ExpiredShed     int64 `json:"expired_shed,omitempty"`
	ExpiredExecuted int64 `json:"expired_executed,omitempty"`
	// Epoch is the highest router epoch this shard has seen on a mutating
	// request — the fence a zombie router's writes are rejected against.
	// FencedRejected counts stale-epoch mutations refused; FencedAccepted is
	// the invariant tripwire (a stale-epoch mutation that executed) and must
	// stay zero.
	Epoch          uint64 `json:"epoch,omitempty"`
	FencedRejected int64  `json:"fenced_rejected,omitempty"`
	FencedAccepted int64  `json:"fenced_accepted,omitempty"`
}

// routerHealth answers GET /v1/router/healthz on the *router's* own control
// address (grafrouter -router-addr) — the standby's liveness probe. Sustained
// probe failure is the takeover trigger; Fenced lets an operator spot a
// zombie generation that is still running but has lost leadership.
type routerHealth struct {
	OK     bool   `json:"ok"`
	PID    int    `json:"pid"`
	Epoch  uint64 `json:"epoch"`
	Round  int    `json:"round"`
	Fenced bool   `json:"fenced"`
}

// configureRequest (POST /v1/configure) installs the fleet spec; the shard
// builds an empty dynamic fleet from it. Reconfiguring a shard that already
// holds tenants is an error — evict them first.
type configureRequest struct {
	Spec Spec `json:"spec"`
}

type configureResponse struct {
	OK bool `json:"ok"`
}

// admitRequest (POST /v1/admit) places a tenant on the shard. Ticks is the
// router's last known completed tick count: zero admits a fresh tenant,
// positive fast-forwards the rebuilt tenant by deterministic re-execution.
// The shard repairs and re-reads any on-disk audit log for the tenant first
// and replays past Ticks if the log proves the previous owner got further —
// the zero-lost-decisions guarantee. Admit is idempotent: if the tenant is
// already resident (a retried request whose first attempt's response was
// lost), the shard fast-forwards it to Ticks if behind and reports its
// current status instead of rejecting.
type admitRequest struct {
	ID    string `json:"id"`
	Ticks int    `json:"ticks"`
}

type AdmitResponse struct {
	Status TenantStatus `json:"status"`
	// PriorBytes is how many audit bytes the previous owner had durably
	// recorded for this tenant (0 = fresh admit).
	PriorBytes int `json:"prior_bytes,omitempty"`
	// PriorVerified reports that the regenerated audit stream reproduced
	// the prior bytes exactly (always true on success; a mismatch fails the
	// admit).
	PriorVerified bool `json:"prior_verified,omitempty"`
	// ReplayedTicks counts ticks re-executed beyond the router's Ticks to
	// cover decisions the dead owner had flushed but never reported.
	ReplayedTicks int `json:"replayed_ticks,omitempty"`
	// SnapshotVerified reports that the rebuilt controller state matched
	// the tenant's latest checkpoint digest (only attempted when a
	// checkpoint at the same tick exists).
	SnapshotVerified bool `json:"snapshot_verified,omitempty"`
}

// evictRequest (POST /v1/evict) drains a tenant off the shard — the first
// half of a planned migration. With Checkpoint set the shard snapshots the
// tenant into its checkpoint store before removal, so the target can verify
// its rebuilt state against it. Evict is idempotent: evicting a tenant that
// is not resident succeeds with Missing set rather than 404, so a retried
// drain whose first attempt completed does not abort the migration.
type evictRequest struct {
	ID         string `json:"id"`
	Checkpoint bool   `json:"checkpoint"`
}

type EvictResponse struct {
	Status TenantStatus `json:"status"`
	// Missing reports the tenant was not resident — a retried evict whose
	// first attempt already removed it (or an evict for a tenant never
	// admitted). Status carries only the ID in that case, no accounting.
	Missing bool `json:"missing,omitempty"`
}

// tickRequest (POST /v1/tick) advances the shard to the absolute round
// index. Only tenants behind the round are ticked, so a duplicated or
// retried tick is a no-op; the shard flushes every tenant's on-disk audit
// log before answering, so the durable log is never behind what the router
// has been told.
type tickRequest struct {
	Round int `json:"round"`
}

type TickResponse struct {
	Round    int            `json:"round"`
	Statuses []TenantStatus `json:"statuses"`
}

// TenantsResponse (GET /v1/tenants) lists the shard's tenants.
type TenantsResponse struct {
	Statuses []TenantStatus `json:"statuses"`
}

// TracesResponse (GET /v1/traces) returns the shard's retained control-plane
// trace spans; the router merges every shard's spans with its own to stitch
// cross-process traces and export Chrome trace-event JSON.
type TracesResponse struct {
	Proc  string          `json:"proc"`
	Spans []obs.TraceSpan `json:"spans"`
}

// CheckpointResponse (POST /v1/checkpoint) reports how many tenants were
// snapshotted into the shard's checkpoint store.
type CheckpointResponse struct {
	Saved int `json:"saved"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Overloaded marks a 429-style admission rejection: the shard is alive
	// and healthy but shedding this priority class. RetryAfterMS is its
	// backpressure hint. Clients and the router treat this as backpressure,
	// not shard failure — it must not trip breakers or trigger recovery.
	Overloaded   bool `json:"overloaded,omitempty"`
	RetryAfterMS int  `json:"retry_after_ms,omitempty"`
	// Expired marks a 504-style deadline rejection: the request's propagated
	// end-to-end budget was already exhausted when the shard picked it up, so
	// the shard refused to execute it (executing expired work is the bug the
	// overload subsystem exists to prevent).
	Expired bool `json:"expired,omitempty"`
	// Fenced marks a 409 stale-epoch rejection: the request's Graf-Epoch is
	// older than the highest this shard has seen, so the sender is a router
	// generation that lost leadership. Epoch carries the shard's fence so the
	// zombie can see exactly how far behind it is. Fenced is fatal to the
	// sender's round loop — retrying cannot succeed, a newer router owns the
	// fleet.
	Fenced bool   `json:"fenced,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// epochHeader carries the router generation's epoch on every mutating shard
// RPC (DESIGN.md §3k). Shards remember the highest epoch seen and reject
// anything older with a typed 409, so a zombie router that lost leadership
// can never double-drive a migration or re-admit a tenant. Read-only
// endpoints are deliberately unfenced: a stale router reading status is
// harmless, and the standby needs /v1/tenants before it owns an epoch.
const epochHeader = "Graf-Epoch"

// contentType and jsonContent are the one header every message with a body
// carries, set by map assignment: Header.Set would allocate the value slice
// on every message.
const contentType = "Content-Type"

var jsonContent = []string{"application/json"}

// bodyBuf is a message body buffer with a JSON encoder writing into it.
// Both ends of the protocol read and write bodies through pooled ones, so
// a message costs what it decodes rather than a fresh buffer and decoder.
type bodyBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var bodyBufs = sync.Pool{New: func() any {
	b := new(bodyBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

// keptBodyBuf bounds the buffers returned to the pool: one that grew past
// it is left to the collector instead of pinning a rare large message's
// memory.
const keptBodyBuf = 1 << 20

func getBodyBuf() *bodyBuf { return bodyBufs.Get().(*bodyBuf) }

func putBodyBuf(b *bodyBuf) {
	if b.Cap() > keptBodyBuf {
		return
	}
	b.Reset()
	bodyBufs.Put(b)
}
