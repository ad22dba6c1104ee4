#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#	bash bench/run.sh --workload transfer --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, module cache,
# temporary files, the binary, serve result stores, traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/pimmu-benchmark" .)
exec "$out/pimmu-benchmark" "$@"
