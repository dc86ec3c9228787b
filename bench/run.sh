#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it against the repository it
# sits in, passing every argument through (see main.go for the flags):
#
#   bash bench/run.sh --workload wire-zipf --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out run.json
#
# Everything the build and the runs write -- the Go caches, the binaries,
# the daemon's data dirs, trace files -- stays under .bench_build in the
# repository root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$out/bin/bench" .
exec "$out/bin/bench" -root "$root" "$@"
