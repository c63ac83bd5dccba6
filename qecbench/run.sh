#!/usr/bin/env bash
# Builds qec-serve and the benchmark driver from the checkout in the current
# directory, then runs the benchmark. Run from the repository root:
#
#   bash qecbench/run.sh --workload cold-serial --seed 1 --seconds 25 --trace 0
#   bash qecbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binaries, the run's snapshot,
# server logs and spans) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/qec-serve ]; then
	echo "qecbench: run from the repository root (no go.mod or cmd/qec-serve here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/qec-serve" ./cmd/qec-serve
(cd qecbench && go build -o "$out/qecbench" .)
exec "$out/qecbench" --serve "$out/qec-serve" --workdir "$out" "$@"
