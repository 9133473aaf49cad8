#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Everything the build and the run write — Go's build
# cache and temporary files, the binary, disk stores, spans — stays
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "benchmark: no go.mod in $root: the program's source is not here" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
# With a fresh config directory the go command would start a detached
# telemetry child that outlives it; nothing may outlive a run.
go telemetry off
go build -o "$build/sfs-benchmark" ./benchmark
exec "$build/sfs-benchmark" "$@"
