#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload whatif-distinct --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every temporary file go under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout. Without the repository's
# sources next to perfbench/ the build fails and the script exits
# non-zero before any result is printed.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Keep the go command's cache and telemetry inside the checkout, offline,
# and on the installed toolchain. GOENV still points at the user's
# settings file, which XDG_CONFIG_HOME would otherwise move.
export GOENV="${GOENV:-${XDG_CONFIG_HOME:-$HOME/.config}/go/env}"
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -trimpath -o "$out/perfbench" .
export PERFBENCH_DIR="$out"
exec "$out/perfbench" "$@"
