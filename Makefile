GO ?= go

.PHONY: all build vet test test-race loc deadcode bench bench-repo obs-demo ci

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

# Fail, naming file:line, on any non-test function of the module that no
# binary, example, benchmark or test binary links, any exported name no other
# package names and any field no non-test code reads (scripts/deadcode.py,
# which runs scripts/deadnames beside its builds); print the settable-value
# census.
deadcode:
	python3 scripts/deadcode.py

# Reproduce the paper's evaluation tables (see EXPERIMENTS.md). An
# experiment's floors live in its runner; grafbench exits 1 when one breaks,
# and go test ./internal/bench runs every runner at quick scale.
bench:
	$(GO) run ./cmd/grafbench -scale quick

# The repository benchmark (BENCHMARK.json, benchmark/README.md): four
# control-plane workloads, untraced and traced, every metric by name.
bench-repo:
	bash benchmark/run.sh

# Observability smoke demo: train a quick model, run the controller with the
# telemetry endpoints up, self-scrape /metrics, then hold the endpoints for
# 10 s of manual curl time (see README "Observability").
obs-demo:
	$(GO) run ./cmd/grafd -train -dur 120 -obs 127.0.0.1:9090 -smoke -hold 10

ci: build vet deadcode test test-race
