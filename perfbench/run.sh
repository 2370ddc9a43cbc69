#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine-chain --seed 1 --seconds 22 --trace 0
#
# Build outputs, the Go build cache, generated inputs and span files all go
# to .bench_build/ under the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# Keep every file the Go toolchain writes (build cache, module cache,
# telemetry counters, temporary files) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

if ! (cd "$here" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root of a full checkout)" >&2
	exit 3
fi
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)"
exec "$out/perfbench" -root "$root" -out "$out" -commit "$commit" "$@"
