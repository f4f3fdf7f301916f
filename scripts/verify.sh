#!/usr/bin/env sh
# verify.sh — formatting, the tier-1 gate, the nested perfbench
# module's tests, the race detector, repeated race passes over the
# memo primitive and the campaign's cancellation, and each
# internal/server test run alone. Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted (run gofmt -w):"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

# perfbench is a nested module, so the root ./... patterns never reach
# it; its generator and spec tests guard the benchmark. Tests only —
# no benchmark run.
echo "==> go -C perfbench vet ./..."
go -C perfbench vet ./...

echo "==> go -C perfbench test ./..."
go -C perfbench test ./...

echo "==> go test -race ./..."
go test -race ./...

# Every lazily built product shares internal/memo; stress its
# concurrency tests beyond the single race pass above.
echo "==> go test -race -count=20 ./internal/memo"
go test -race -count=20 ./internal/memo

# traceroute.Run starts a decision goroutine and pool workers; stress
# that a canceled campaign returns context.Canceled and leaves none of
# them running.
echo "==> go test -race -count=20 -run TestRunCanceled ./internal/traceroute"
go test -race -count=20 -run 'TestRunCanceled$' ./internal/traceroute

# Each internal/server test also runs by itself, from one prebuilt
# test binary, so a test that passes only after others have run (an
# order dependence a full package run hides) fails the gate.
echo "==> internal/server tests, one at a time"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go test -c -o "$tmp/server.test" ./internal/server
tests="$(cd internal/server && "$tmp/server.test" -test.list '^Test')"
if [ -z "$tests" ]; then
	echo "internal/server: no tests listed"
	exit 1
fi
for name in $tests; do
	if ! (cd internal/server && "$tmp/server.test" -test.run "^${name}\$" >"$tmp/out" 2>&1); then
		cat "$tmp/out"
		echo "internal/server: $name fails when run alone"
		exit 1
	fi
done
echo "$(echo "$tests" | wc -l) tests passed alone"

# Fuzz smoke is part of the gate unless explicitly skipped
# (SKIP_FUZZ=1 sh scripts/verify.sh) — e.g. on machines where the
# fuzzing engine's per-target startup dominates.
if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	echo "==> fuzz smoke"
	sh scripts/fuzz.sh
fi

echo "verify: all checks passed"
