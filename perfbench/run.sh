#!/usr/bin/env bash
# Builds rcserve and the benchmark from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload signoff --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache and the go command's config included; the first build in
# a fresh checkout compiles the standard library and takes longer.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/rcserve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/rcserve and perfbench/)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its config and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"
go build -o "$out/rcserve" ./cmd/rcserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -rcserve "$out/rcserve" -work "$out/work" "$@"
