#!/usr/bin/env bash
# Builds cmd/topobench from source and runs one benchmark run.
#
# Run it from the repository root:
#
#   bash cmd/topobench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every other argument passes through to the benchmark. --trace 1 makes a
# traced run whose spans go to .bench_build/topobench-spans.json. The build
# and its caches stay under .bench_build in the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build"

env HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go -C "$root/cmd/topobench" build -o "$build/topobench" .

args=()
while [ $# -gt 0 ]; do
	case $1 in
	--trace | -trace)
		if [ "${2:-0}" = 1 ]; then
			args+=(-trace "$build/topobench-spans.json")
		fi
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$build/topobench" "${args[@]}"
