#!/usr/bin/env bash
# Builds the benchmark from source and execs it, so the benchmark runs
# as this one process and no `go run` child can outlive it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload fit_deep --seed 1 --seconds 15 --trace 0
#
# Build outputs (the binary and the Go build cache) go to .bench_build
# at the root, or to $CARGO_TARGET_DIR when that is set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
# Everything the go command writes (build cache, module cache, its
# config and telemetry) stays under the build directory.
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
	cd "$here" && go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
