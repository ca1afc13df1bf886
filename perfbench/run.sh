#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, forwarding
# every argument (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload remote-tier --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/. A tree without the repository's sources fails to build, and
# the script then exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export XDG_CONFIG_HOME="$out/config"

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
