#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
