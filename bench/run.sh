#!/usr/bin/env bash
# Builds the quickperf benchmark from source and runs it with the given
# arguments, from the root of a repository checkout:
#
#   bash bench/run.sh --workload record-splash --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, and the benchmark's ingest stores.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" # the go env file and telemetry
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd bench && go build -o "$out/quickperf" ./quickperf)
exec "$out/quickperf" -workdir "$out/quickperf-work" "$@"
