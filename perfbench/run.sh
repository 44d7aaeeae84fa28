#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload hotset --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Every build artefact (binary, Go
# build cache, Go's own config files) stays under $CARGO_TARGET_DIR,
# default .bench_build, so the run reads and writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off \
		go build -buildvcs=false -o "$build/perfbench" .
)
exec "$build/perfbench" --scratch "$build" "$@"
