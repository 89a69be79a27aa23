#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash bench/run.sh --workload gemm --seed 3 --seconds 10 --trace 0
# Run from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build/ in the current directory, and no
# toolchain or module is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/dlsys-bench" .)
exec "$build/dlsys-bench" "$@"
