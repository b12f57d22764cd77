#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tier-study --seed 1 --seconds 10 --trace 0
#
# The build writes only under .bench_build in the current directory: the
# binary, the Go build cache, and (through HOME) anything else the go
# command keeps per user.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/home"
(
	cd perfbench
	HOME="$out/home" GOCACHE="$out/gocache" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
