#!/usr/bin/env bash
# Builds the benchmark and the katarad daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload person-batch --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare -parent DIR -change DIR
#
# Everything the build and the run write (Go caches, binaries, the KB file,
# katarad journals, result files) stays under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/katarad" katara/cmd/katarad)
if [ "${1:-}" = compare ]; then
	shift
	exec "$build/bin/perfbench" compare -root "$root" "$@"
fi
exec "$build/bin/perfbench" -root "$root" -katarad "$build/bin/katarad" "$@"
