#!/usr/bin/env bash
# Builds the benchmark program and secsimd from the checkout it is run in,
# then runs one measurement:
#
#   bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# lands under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
b="$root/.bench_build"
mkdir -p "$b/bin" "$b/tmp" "$b/xdg"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomod" GOPATH="$b/gopath" \
	XDG_CONFIG_HOME="$b/xdg" TMPDIR="$b/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$b/bin/bench" .) >&2
go build -o "$b/bin/secsimd" ./cmd/secsimd >&2

exec "$b/bin/bench" -bin "$b/bin" -root "$root" "$@"
