#!/usr/bin/env bash
# Builds pland and the benchmark from this checkout into .bench_build, then
# runs one workload. From the repository root:
#
#   bash servicebench/run.sh --workload plan --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
(cd "$root" && go build -o "$out/pland" ./cmd/pland) >&2
(cd "$root/servicebench" && go build -o "$out/servicebench" .) >&2
exec "$out/servicebench" -pland "$out/pland" -workdir "$out/run" "$@"
