#!/usr/bin/env bash
# Builds the benchmark and memverifyd from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload reductions --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --suite --seed 1 --out report.json
#
# Every build artefact, Go cache and temporary file stays under
# .bench_build/ so the run writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd perfbench && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/memverifyd" ./cmd/memverifyd

exec "$build/bin/perfbench" --memverifyd "$build/bin/memverifyd" "$@"
