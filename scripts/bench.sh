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
#       # revision (extracted from git into a temporary directory, no
#       # network) and in this working tree, on the same machine, in 3
#       # rounds; the side that runs first alternates. Each side is
#       # judged by its median over the rounds, and the gate fails when
#       # any benchmark regresses more than TOLERANCE (default 0.25,
#       # i.e. 25%) in ns/op. Each compared benchmark prints both sides'
#       # median ns/op, their ratio and both sides' median allocs/op.
#       # Benchmarks found on one side only are listed; comparing none
#       # fails. Both summaries are throwaway; BENCH_obs.json is
#       # untouched.
#
#   scripts/bench.sh ab HEAD~1 sweep-jobs 10
#       # end-to-end A/B: build the given git revision (extracted from
#       # git into a temporary directory, no network) and this working
#       # tree, each into its own CARGO_TARGET_DIR, then run
#       # perfbench/run.sh --trace 0 on both for the given number of
#       # pairs (default 10). Pair i runs at seed SEED0+i (default
#       # SEED0=1000) for BENCHMARK.json's run_seconds, and the side
#       # that runs first alternates. cmd/benchjson -ab writes every run
#       # and each end-to-end metric's medians, quartiles, wins, ratio
#       # and verdict to OUT (default BENCH_ab.json) and prints a table;
#       # any run that exits non-zero, reports correct: false or failed
#       # operations is listed and fails the script.
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
	git rev-parse --verify --quiet "$REV^{commit}" >/dev/null || { echo "bench.sh: unknown revision $REV" >&2; exit 1; }
	TMP="$(mktemp -d -t bench_compare.XXXXXX)"
	trap 'rm -rf "$TMP"' EXIT
	mkdir "$TMP/base"
	git archive "$REV" | tar -x -C "$TMP/base"
	head="$(pwd)"
	: >"$TMP/base.jsonl"
	: >"$TMP/head.jsonl"
	for round in 0 1 2; do
		order="base head"
		[ $((round % 2)) -eq 1 ] && order="head base"
		for side in $order; do
			dir="$TMP/base"
			[ "$side" = head ] && dir="$head"
			echo "==> round $round: $side" >&2
			(cd "$dir" && go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -json ./...) >>"$TMP/$side.jsonl"
		done
	done
	go run ./cmd/benchjson -o "$TMP/base.json" <"$TMP/base.jsonl"
	go run ./cmd/benchjson -o "$TMP/head.json" -baseline "$TMP/base.json" -tolerance "$TOLERANCE" <"$TMP/head.jsonl"
	exit $?
fi

if [ "${1:-}" = "ab" ]; then
	usage="usage: scripts/bench.sh ab <rev> <workload> [pairs]"
	REV="${2:?$usage}"
	WORKLOAD="${3:?$usage}"
	PAIRS="${4:-10}"
	SEED0="${SEED0:-1000}"
	OUT="${OUT:-BENCH_ab.json}"
	secs="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
	[ -n "$secs" ] || { echo "bench.sh: no run_seconds in BENCHMARK.json" >&2; exit 1; }
	git rev-parse --verify --quiet "$REV^{commit}" >/dev/null || { echo "bench.sh: unknown revision $REV" >&2; exit 1; }
	TMP="$(mktemp -d -t bench_ab.XXXXXX)"
	trap 'rm -rf "$TMP"' EXIT
	mkdir "$TMP/base"
	git archive "$REV" | tar -x -C "$TMP/base"
	head="$(pwd)"
	: >"$TMP/runs.jsonl"
	i=0
	while [ "$i" -lt "$PAIRS" ]; do
		seed=$((SEED0 + i))
		order="base head"
		[ $((i % 2)) -eq 1 ] && order="head base"
		for side in $order; do
			dir="$TMP/base"
			[ "$side" = head ] && dir="$head"
			out="$TMP/$side-$i.out"
			echo "==> pair $i seed $seed: $side" >&2
			status=0
			(cd "$dir" && CARGO_TARGET_DIR="$TMP/build-$side" bash perfbench/run.sh \
				--workload "$WORKLOAD" --seed "$seed" --seconds "$secs" --trace 0) >"$out" 2>"$TMP/$side-$i.err" || status=$?
			[ "$status" -eq 0 ] || tail -n 5 "$TMP/$side-$i.err" >&2
			printf '{"side":"%s","pair":%d,"seed":%d,"exit":%d,"output":"%s"}\n' \
				"$side" "$i" "$seed" "$status" "$out" >>"$TMP/runs.jsonl"
		done
		i=$((i + 1))
	done
	go run ./cmd/benchjson -ab "$TMP/runs.jsonl" -o "$OUT"
	exit $?
fi

BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_obs.json}"

go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -json ./... |
	go run ./cmd/benchjson -o "$OUT"
