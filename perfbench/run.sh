#!/bin/sh
# Builds the benchmark harness from source and runs it.
#
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root: the binary, the Go build cache, temporary files and the results.
# The harness is its own module (perfbench/go.mod) that resolves the
# emtrust module from the parent directory, so outside a full checkout
# the build fails and the script exits non-zero without a result.
set -eu

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
