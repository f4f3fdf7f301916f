GO ?= go

.PHONY: build test race vet verify fuzz bench bench-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify is the full pre-merge gate: gofmt, vet, build, tests, race
# detector, fuzz smoke (skip the last with SKIP_FUZZ=1).
verify:
	sh scripts/verify.sh

# fuzz runs every native fuzz target for a short burst (FUZZTIME=10s).
fuzz:
	sh scripts/fuzz.sh

# bench runs the benchmark suite and writes BENCH_obs.json.
bench:
	sh scripts/bench.sh

# bench-smoke runs the graph-kernel micro-benchmarks, the
# clone-vs-overlay scenario pairs (internal/scenario, against the
# clone reference kept in its tests) and the per-pair-vs-batched
# latency atlas pair (internal/latency) for one iteration each — a
# fast CI check that the benchmarks themselves still build and run
# (it does not overwrite BENCH_obs.json).
bench-smoke:
	BENCH='DijkstraSweep|KShortestPaths$$|EdgeBetweenness|MaxFlow|ScenarioEvaluate|ScenarioEvaluateCapacity|ScenarioSweep|GridSweep|TracingOverhead|LatencyAtlas' BENCHTIME=1x OUT=BENCH_smoke.json sh scripts/bench.sh
	rm -f BENCH_smoke.json

clean:
	rm -f BENCH_obs.json BENCH_smoke.json
