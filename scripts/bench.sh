#!/usr/bin/env sh
# bench.sh — run the benchmark suite and emit a machine-readable
# summary (BENCH_obs.json) via cmd/benchjson.
#
# Usage:
#   scripts/bench.sh                 # all packages, default settings
#   BENCH=Figure1 scripts/bench.sh   # filter by benchmark name
#   BENCHTIME=1x scripts/bench.sh    # quick smoke pass
#   OUT=custom.json scripts/bench.sh
#
#   scripts/bench.sh compare HEAD~1 'LatencyAtlas|MaxFlow'
#       # regression gate: run the named benchmarks at the given git
#       # revision (in a temporary worktree) and then in this working
#       # tree, on the same machine, and fail when any regresses more
#       # than TOLERANCE (default 0.25, i.e. 25%) in ns/op. Each compared
#       # benchmark prints both sides' ns/op, their ratio and both sides'
#       # allocs/op. Benchmarks found on one side only are listed;
#       # comparing none fails. Both summaries are throwaway;
#       # BENCH_obs.json is untouched.
#
# The graph-kernel micro-benchmarks (DijkstraSweep, KShortestPaths,
# EdgeBetweenness) ride along with the figure benchmarks; `make
# bench-smoke` runs just those for one iteration as a CI check.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "compare" ]; then
	usage="usage: scripts/bench.sh compare <rev> 'BenchName|OtherBench'"
	REV="${2:?$usage}"
	BENCH="${3:?$usage}"
	BENCHTIME="${BENCHTIME:-1s}"
	TOLERANCE="${TOLERANCE:-0.25}"
	TMP="$(mktemp -d -t bench_compare.XXXXXX)"
	trap 'git worktree remove --force "$TMP/base" 2>/dev/null; rm -rf "$TMP"' EXIT
	git worktree add --quiet --detach "$TMP/base" "$REV"
	(cd "$TMP/base" && go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -json ./...) |
		go run ./cmd/benchjson -o "$TMP/base.json"
	go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -json ./... |
		go run ./cmd/benchjson -o "$TMP/head.json" -baseline "$TMP/base.json" -tolerance "$TOLERANCE"
	exit $?
fi

BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_obs.json}"

go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -json ./... |
	go run ./cmd/benchjson -o "$OUT"
