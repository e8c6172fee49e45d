#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload perf_matrix --seed 1 --seconds 20 --trace 0
# Everything the build and the runs leave behind goes to .bench_build/
# (or $CARGO_TARGET_DIR when set) under the directory it is started from.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/run" "$@"
