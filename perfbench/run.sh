#!/bin/sh
# Builds the benchmark from the checkout it is started in, then runs it:
#
#	sh perfbench/run.sh --workload cluster-ingest --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary, the corpus
# cache and the nodes' data directories all live under .bench_build/, so
# nothing is written outside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
