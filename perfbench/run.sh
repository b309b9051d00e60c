#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The Go build cache, the binary and every
# scratch file stay under .bench_build/ in the checkout. The build fails
# (and the script exits non-zero without printing a result) when the
# repository's own module is not next to perfbench/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
