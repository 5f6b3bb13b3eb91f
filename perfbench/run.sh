#!/usr/bin/env bash
# Builds the benchmark and the explorer server from source, then runs one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload study-http --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/explorerd || ! -d internal ]]; then
	echo "perfbench: $root is not a checkout of the repository" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
# Keep every file the Go toolchain writes (build cache, module cache,
# telemetry, temporary files) inside the checkout, and never download.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
go build -o "$out/bin/explorerd" ./cmd/explorerd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
