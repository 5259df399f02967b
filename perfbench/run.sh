#!/usr/bin/env bash
# Builds gpuvard and the perfbench program from the checkout's source,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload burst-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write lands under .bench_build/ in
# the checkout (Go build cache included), so a checkout is self-contained.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gpuvard" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/gpuvard and perfbench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -o "$build/gpuvard" ./cmd/gpuvard >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" -gpuvard "$build/gpuvard" -out "$build" "$@"
