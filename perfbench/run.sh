#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-cnn --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything it writes (build cache,
# binary, checkpoints, span files) goes under CARGO_TARGET_DIR, or
# .bench_build when that is unset. Build output goes to standard error,
# so the last line of standard output is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

# Keep the toolchain's caches, temp files and config inside the build
# directory, and never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
export GOMAXPROCS=2

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
