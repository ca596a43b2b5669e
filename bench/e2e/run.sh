#!/usr/bin/env bash
# Builds bench/e2e inside the checkout and runs it with the given
# arguments. BENCHMARK.json names this script as the benchmark command;
# everything it writes (Go build cache included) stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local

# The module replaces dcpim with ../.., so this fails (and the script with
# it) anywhere the repository's own go.mod is missing.
(cd "$here" && go build -o "$build/e2e" .)

cd "$root"
exec "$build/e2e" "$@"
