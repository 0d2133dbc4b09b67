GO ?= go

.PHONY: all build vet test test-race loc bench bench-repo bench-json bench-json-fleetrpc bench-json-router bench-json-obs bench-json-overload bench-json-forecast obs-demo ci FORCE

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The size figure ROADMAP.md and CHANGES.md quote: non-test Go lines outside
# the nested benchmark module and its build scratch.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -exec cat {} + | wc -l

# Reproduce the paper's evaluation tables (see EXPERIMENTS.md).
bench:
	$(GO) run ./cmd/grafbench -scale quick

# The repository benchmark (BENCHMARK.json, benchmark/README.md): four
# control-plane workloads, untraced and traced, every metric by name.
bench-repo:
	bash benchmark/run.sh

# Machine-readable numbers for CI trend tracking and regression ceilings:
# `make BENCH_<stem>.json` runs the stem's root-package benchmarks once
# (-benchtime 1x) through cmd/benchjson; custom b.ReportMetric units land as
# "extra" metrics. Each benchmark enforces its own invariants and fails
# outright when one breaks.
#   fleet     scratch-reusing inference (the gnn micro-benchmarks, run first
#             at the default benchtime), one full solve, the fleet experiment
#   fleetrpc  router→shard plane (DESIGN.md §3h): ticks/s, migration and
#             shard-loss blackout, zero lost decisions; CI holds
#             migration-blackout-ms under a ceiling
#   router    crash-safe router (§3k): standby takeover blackout after a
#             SIGKILL mid-migration, zero lost decisions / fenced writes; CI
#             holds takeover-blackout-ms under a ceiling
#   obs       tracing overhead per tenant tick (§3i; CI holds overhead-pct,
#             the traced run stays byte-identical) and SLO burn-rate detection
#   overload  brownout ladder vs never-degrade and always-heuristic (§3j):
#             both orderings and a monotone ladder walk
#   forecast  forecasted-quantile vs reactive provisioning on the diurnal
#             cycle and the Azure trace (§3l): strictly fewer violation-seconds
BENCH_RE_fleet    := ^(BenchmarkSolver|BenchmarkFleet)$$
BENCH_RE_fleetrpc := ^BenchmarkFleetRPC$$
BENCH_RE_router   := ^BenchmarkRouterFailover$$
BENCH_RE_obs      := ^(BenchmarkTraceOverhead|BenchmarkSLOBurn)$$
BENCH_RE_overload := ^BenchmarkOverload$$
BENCH_RE_forecast := ^BenchmarkForecast$$
BENCH_PRE_fleet   := $(GO) test -run '^$$' -bench '^(BenchmarkPredict|BenchmarkPredictGrad)$$' -benchmem ./internal/gnn/ ;

BENCH_%.json: FORCE
	@test -n '$(BENCH_RE_$*)' || { echo "no benchmark set named $*"; exit 1; }
	{ $(BENCH_PRE_$*) $(GO) test -run '^$$' -bench '$(BENCH_RE_$*)' -benchtime 1x -benchmem . ; } | \
	  $(GO) run ./cmd/benchjson -o $@
	@echo wrote $@

FORCE:

# The target names CI calls.
bench-json: BENCH_fleet.json
bench-json-fleetrpc: BENCH_fleetrpc.json
bench-json-router: BENCH_router.json
bench-json-obs: BENCH_obs.json
bench-json-overload: BENCH_overload.json
bench-json-forecast: BENCH_forecast.json

# Observability smoke demo: train a quick model, run the controller with the
# telemetry endpoints up, self-scrape /metrics, then hold the endpoints for
# 10 s of manual curl time (see README "Observability").
obs-demo:
	$(GO) run ./cmd/grafd -train -dur 120 -obs 127.0.0.1:9090 -smoke -hold 10

ci: build vet test-race
