package obs

// RPCObs observes the control-plane routing client: per-shard request
// latency, attempt outcomes, retries, and circuit-breaker state. RouterObs
// observes the router itself — round duration, migration blackouts, shard
// deaths and the respawn/reassign outcomes that were previously only
// greppable stdout stats. Both follow the package's hook convention: valid
// no-ops when nil, concurrency-safe via the registry's own locking.

// RPCObs is the routing-client hook.
type RPCObs struct {
	t *Telemetry
}

// NewRPCObs returns a client hook, or nil when t is nil.
func NewRPCObs(t *Telemetry) *RPCObs {
	if t == nil {
		return nil
	}
	return &RPCObs{t: t}
}

// Request records one completed client call (all retries included).
func (o *RPCObs) Request(op, shard string, seconds float64, ok bool) {
	if o == nil {
		return
	}
	o.t.Reg.Histogram("graf_rpc_request_seconds",
		"End-to-end client call latency per operation and shard, retries included.",
		nil, Labels{"op": op, "shard": shard}).Observe(seconds)
	outcome := "ok"
	if !ok {
		outcome = "error"
	}
	o.t.Reg.Counter("graf_rpc_requests_total",
		"Completed client calls per operation and outcome.",
		Labels{"op": op, "outcome": outcome}).Inc()
}

// Attempt records one wire attempt inside a call's retry loop. Outcomes:
// "ok", "error", "dropped" (fault injection), "rejected" (breaker open).
func (o *RPCObs) Attempt(op, outcome string) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_rpc_attempts_total",
		"Wire attempts per operation and outcome (ok/error/dropped/rejected).",
		Labels{"op": op, "outcome": outcome}).Inc()
	if outcome != "ok" && outcome != "rejected" {
		o.t.Reg.Counter("graf_rpc_retries_total",
			"Attempts that failed and were retried (or exhausted the budget).",
			Labels{"op": op}).Inc()
	}
}

// Breaker state codes for graf_rpc_breaker_state.
const (
	BreakerClosed   = 0.0
	BreakerHalfOpen = 1.0
	BreakerOpen     = 2.0
)

// BreakerTransition records a circuit-breaker state change and updates the
// per-shard state gauge (0 closed, 1 half-open, 2 open).
func (o *RPCObs) BreakerTransition(shard, to string, state float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_rpc_breaker_transitions_total",
		"Circuit-breaker state transitions per shard and target state.",
		Labels{"shard": shard, "to": to}).Inc()
	o.t.Reg.Gauge("graf_rpc_breaker_state",
		"Current circuit-breaker state per shard (0 closed, 1 half-open, 2 open).",
		Labels{"shard": shard}).Set(state)
}

// RouterObs is the router-side hook.
type RouterObs struct {
	t *Telemetry
}

// NewRouterObs returns a router hook, or nil when t is nil.
func NewRouterObs(t *Telemetry) *RouterObs {
	if t == nil {
		return nil
	}
	return &RouterObs{t: t}
}

// Round records one completed router round and its fan-out width.
func (o *RouterObs) Round(seconds float64, shards, failed int) {
	if o == nil {
		return
	}
	o.t.Reg.Histogram("graf_router_round_seconds",
		"Wall-clock duration of one router fan-out round.", nil, nil).Observe(seconds)
	o.t.Reg.Counter("graf_router_rounds_total",
		"Completed router rounds.", nil).Inc()
	o.t.Reg.Gauge("graf_router_shards",
		"Live shards in the ring at the end of the last round.", nil).Set(float64(shards))
	if failed > 0 {
		o.t.Reg.Counter("graf_router_shard_failures_total",
			"Per-round shard tick failures investigated by the router.", nil).Add(float64(failed))
	}
}

// Shed records tick calls the overload shield refused this round: work the
// router deliberately left behind (partial round), not shard failures.
func (o *RouterObs) Shed(ticks int) {
	if o == nil || ticks <= 0 {
		return
	}
	o.t.Reg.Counter("graf_router_shed_ticks_total",
		"Tick calls shed by shard overload protection or round budgets.", nil).Add(float64(ticks))
	o.t.Reg.Counter("graf_router_partial_rounds_total",
		"Rounds completed with at least one shed tick.", nil).Inc()
}

// Migration records a tenant migration and its blackout (the window the
// tenant was ticking nowhere). Outcomes: "ok", "rollback", "failed".
func (o *RouterObs) Migration(outcome string, blackoutMS float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_router_migrations_total",
		"Tenant migrations per outcome (ok/rollback/failed).",
		Labels{"outcome": outcome}).Inc()
	if outcome == "ok" {
		o.t.Reg.Histogram("graf_router_migration_blackout_ms",
			"Milliseconds a migrating tenant spent owned by no shard.",
			ExpBuckets(1, 2, 14), nil).Observe(blackoutMS)
	}
}

// Reconcile records one anti-entropy pass of a resumed/standby router:
// tenants confirmed where the checkpoint said, residency corrections adopted
// from shard reports, orphans re-placed, and duplicate residencies evicted.
func (o *RouterObs) Reconcile(epoch uint64, confirmed, adopted, orphaned, dupEvicted int) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_router_reconciles_total",
		"Anti-entropy reconcile passes run by resumed or standby routers.", nil).Inc()
	o.t.Reg.Gauge("graf_router_epoch",
		"This router generation's fencing epoch.", nil).Set(float64(epoch))
	add := func(name, help, outcome string, n int) {
		if n > 0 {
			o.t.Reg.Counter(name, help, Labels{"outcome": outcome}).Add(float64(n))
		}
	}
	add("graf_router_reconcile_tenants_total",
		"Tenants processed by reconcile passes, by outcome.", "confirmed", confirmed)
	add("graf_router_reconcile_tenants_total",
		"Tenants processed by reconcile passes, by outcome.", "adopted", adopted)
	add("graf_router_reconcile_tenants_total",
		"Tenants processed by reconcile passes, by outcome.", "orphaned", orphaned)
	add("graf_router_reconcile_tenants_total",
		"Tenants processed by reconcile passes, by outcome.", "dup-evicted", dupEvicted)
}

// ShardDeath records a confirmed shard failure and how it was resolved:
// respawned in place or removed from the ring with tenants reassigned.
func (o *RouterObs) ShardDeath(respawned bool, reassigned int, blackoutMS float64) {
	if o == nil {
		return
	}
	o.t.Reg.Counter("graf_router_shard_deaths_total",
		"Shards declared dead after heartbeat investigation.", nil).Inc()
	if respawned {
		o.t.Reg.Counter("graf_router_respawns_total",
			"Dead shards respawned within the restart budget.", nil).Inc()
	}
	if reassigned > 0 {
		o.t.Reg.Counter("graf_router_reassignments_total",
			"Tenants reassigned off dead shards.", nil).Add(float64(reassigned))
	}
	o.t.Reg.Histogram("graf_router_recovery_blackout_ms",
		"Milliseconds from shard-death detection to all orphans verified on new owners.",
		ExpBuckets(1, 2, 16), nil).Observe(blackoutMS)
}
