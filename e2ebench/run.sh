#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# from the checkout root; every argument is passed on, for example
#
#   bash e2ebench/run.sh --workload cold-ask --seed 1 --seconds 10 --trace 0
#
# The build cache, the toolchain's temporary files, the go command's own
# config (telemetry counters), the binary and the servers' data
# directories all live under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -workdir "$out" "$@"
