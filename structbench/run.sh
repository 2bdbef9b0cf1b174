#!/usr/bin/env bash
# Builds structbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash structbench/run.sh --workload profile-advice --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span files of traced runs go to
# $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTMPDIR="$out/go-tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOTELEMETRY=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$bench_dir" && go build -o "$out/structbench" .) >&2
exec "$out/structbench" --out "$out" "$@"
