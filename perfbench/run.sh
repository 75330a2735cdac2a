#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload s16-long --seed 1 --seconds 15 --trace 0
#
# Everything the build and the benchmark write goes under .bench_build/ in
# the checkout: the benchmark binary, Go's build and module caches, the
# runner caches of the generated tier and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a golisa checkout (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The measured process runs as a sibling of every build, never after one
# in the same process: it reads its children's peak memory from
# getrusage, which would otherwise include the go build above or the
# one-time build of the generated tier's Go build-cache baseline.
"$out/perfbench" --work "$out" --prepare
"$out/perfbench" --work "$out" "$@"
