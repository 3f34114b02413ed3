#!/usr/bin/env bash
# Builds the loopback benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash loopbench/run.sh --workload hit-warm --seed 1 --seconds 10 --trace 0
#   bash loopbench/run.sh steady --runs 5 --workloads hit-warm
#
# Every build artefact (binary, Go build cache, module cache, Go's own
# config and telemetry files) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
bench="$root/loopbench"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/config"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

cmd=loopbench
pkg=.
if [ "${1:-}" = steady ]; then
	cmd=steady
	pkg=./steady
	shift
fi
(cd "$bench" && go build -o "$build/$cmd" "$pkg")
exec "$build/$cmd" "$@"
