#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash wallbench/run.sh --workload jw-plummer-8k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span files.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build/wallbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export CGO_ENABLED=0

# The benchmark module resolves the program through "replace repro => ../",
# so the build fails (and the benchmark exits non-zero without a result)
# when the program's sources are not next to this directory.
go -C "$here" build -o "$out/wallbench" . >&2
exec "$out/wallbench" -out "$out" "$@"
