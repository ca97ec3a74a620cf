#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it; every argument is
# passed through. The Go build and module caches live under .bench_build
# so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/xtract-bench" .) >&2
exec "$out/xtract-bench" "$@"
