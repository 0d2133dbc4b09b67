GO ?= go

.PHONY: all build vet test test-race bench bench-repo bench-json bench-json-fleetrpc bench-json-router bench-json-obs bench-json-overload bench-json-forecast obs-demo ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Reproduce the paper's evaluation tables (see EXPERIMENTS.md).
bench:
	$(GO) run ./cmd/grafbench -scale quick

# The repository benchmark (BENCHMARK.json, benchmark/README.md): four
# control-plane workloads, untraced and traced, every metric by name.
bench-repo:
	bash benchmark/run.sh

# Machine-readable numbers for the fleet hot paths: scratch-reusing
# inference, one full solve, and the multi-tenant fleet experiment. Emits
# BENCH_fleet.json for CI trend tracking.
bench-json:
	{ $(GO) test -run '^$$' -bench '^(BenchmarkPredict|BenchmarkPredictGrad)$$' -benchmem ./internal/gnn/ ; \
	  $(GO) test -run '^$$' -bench '^(BenchmarkSolver|BenchmarkFleet)$$' -benchtime 1x -benchmem . ; } | \
	  $(GO) run ./cmd/benchjson -o BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# Multi-process control-plane numbers (DESIGN.md §3h): aggregate ticks/s
# through the router, migration blackout, shard-loss rebalance blackout and
# the zero-lost-decisions invariant, as benchjson extra metrics. CI holds
# migration-blackout-ms under a regression ceiling.
bench-json-fleetrpc:
	$(GO) test -run '^$$' -bench '^BenchmarkFleetRPC$$' -benchtime 1x . | \
	  $(GO) run ./cmd/benchjson -o BENCH_fleetrpc.json
	@echo wrote BENCH_fleetrpc.json

# Crash-safe router numbers (DESIGN.md §3k): standby takeover blackout after
# a SIGKILL mid-migration, with the zero-lost-decisions / zero-fenced-writes
# invariants enforced inside the benchmark, as benchjson extra metrics in
# BENCH_router.json. CI holds takeover-blackout-ms under a regression
# ceiling.
bench-json-router:
	$(GO) test -run '^$$' -bench '^BenchmarkRouterFailover$$' -benchtime 1x . | \
	  $(GO) run ./cmd/benchjson -o BENCH_router.json
	@echo wrote BENCH_router.json

# Fleet-wide observability numbers (DESIGN.md §3i): tracing overhead per
# tenant tick (CI holds overhead-pct under a regression ceiling; the traced
# run must stay byte-identical) and the multi-window SLO burn-rate detection
# times, as benchjson extra metrics in BENCH_obs.json.
bench-json-obs:
	$(GO) test -run '^$$' -bench '^(BenchmarkTraceOverhead|BenchmarkSLOBurn)$$' -benchtime 1x . | \
	  $(GO) run ./cmd/benchjson -o BENCH_obs.json
	@echo wrote BENCH_obs.json

# Overload-protection numbers (DESIGN.md §3j): the brownout ladder vs the
# never-degrade and always-heuristic fixed policies, as benchjson extra
# metrics in BENCH_overload.json. The benchmark fails outright if the ladder
# loses either ordering (deadline misses vs never-degrade, violation seconds
# vs always-heuristic) or records a non-monotone ladder walk.
bench-json-overload:
	$(GO) test -run '^$$' -bench '^BenchmarkOverload$$' -benchtime 1x . | \
	  $(GO) run ./cmd/benchjson -o BENCH_overload.json
	@echo wrote BENCH_overload.json

# Workload-forecasting numbers (DESIGN.md §3l): forecasted-quantile vs
# reactive provisioning on the diurnal cycle and the Azure trace, as
# benchjson extra metrics in BENCH_forecast.json. The benchmark fails
# outright unless forecasting buys strictly fewer SLO-violation seconds than
# reacting on both workloads.
bench-json-forecast:
	$(GO) test -run '^$$' -bench '^BenchmarkForecast$$' -benchtime 1x . | \
	  $(GO) run ./cmd/benchjson -o BENCH_forecast.json
	@echo wrote BENCH_forecast.json

# Observability smoke demo: train a quick model, run the controller with the
# telemetry endpoints up, self-scrape /metrics, then hold the endpoints for
# 10 s of manual curl time (see README "Observability").
obs-demo:
	$(GO) run ./cmd/grafd -train -dur 120 -obs 127.0.0.1:9090 -smoke -hold 10

ci: build vet test-race
