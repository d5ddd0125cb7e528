#!/usr/bin/env bash
# Builds mass-server and the benchmark from this checkout, then runs one
# benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 15 --trace 0
#
# Everything it builds or caches (Go build cache, binaries, generated
# corpora, per-run data directories, spans) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go build -o "$out/mass-server" ./cmd/mass-server >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/mass-server" -workdir "$out" "$@"
