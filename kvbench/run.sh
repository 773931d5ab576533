#!/usr/bin/env bash
# Builds the kvbench driver from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#   bash kvbench/run.sh --workload paper-2ms --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build
# in the checkout. Without the repository around it the build fails, and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/kvbench" build -o "$out/kvbench" .
exec "$out/kvbench" "$@"
