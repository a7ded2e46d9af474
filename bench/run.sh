#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, passing
# every argument through. Everything written stays under the checkout: the Go
# build cache, module path, telemetry files and the binary in .bench_build/,
# results in bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local go build -o "$build/scuba-e2e-bench" .
)
cd "$root"
exec "$build/scuba-e2e-bench" "$@"
