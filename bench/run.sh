#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload operate-simplex --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository, so a run
# writes nothing outside it. The benchmark itself runs from bench/, where
# traced runs write their spans (bench/traces/).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

cd "$root/bench"
go build -o "$out/bench" .
exec "$out/bench" "$@"
