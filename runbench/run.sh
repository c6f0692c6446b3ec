#!/usr/bin/env bash
# Builds the run-to-quiescence benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash runbench/run.sh --workload flood-ring --seed 7 --seconds 20 --trace 0
#
# Run it from the root of the repository. The Go build cache, the module
# cache and the binary all live under .bench_build/ in that directory, so
# the benchmark reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOTELEMETRY=off

# Build to a private name and rename, so concurrent invocations never run
# a half-written binary.
tmp="$out/runbench.$$"
(cd "$root/runbench" && go build -o "$tmp" .)
mv -f "$tmp" "$out/runbench"
exec "$out/runbench" "$@"
