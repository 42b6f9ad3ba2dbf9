#!/usr/bin/env bash
# Builds boundsd and the benchmark driver from this checkout's sources,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and traced-run spans go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so the
# benchmark reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/boundsd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/boundsd and perfbench/go.mod must exist)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$build/boundsd" ./cmd/boundsd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -boundsd "$build/boundsd" -out "$build" "$@"
