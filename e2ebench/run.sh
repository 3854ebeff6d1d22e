#!/usr/bin/env bash
# Builds the end-to-end pipeline benchmark from source and runs one
# workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload model-check --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory. The last line of standard output is the JSON
# result; progress goes to standard error.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -dir "$out/tmp" "$@"
