#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go caches and the binary under
# .bench_build/ at its root, WALs and trace files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/p2pbench" .)
exec "$build/p2pbench" -out "$here/out" -spec "$root/BENCHMARK.json" "$@"
