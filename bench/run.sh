#!/usr/bin/env bash
# Builds the benchmark program and cmd/ewserve from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload phrase-long --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's scratch files and
# its own state stay under .bench_build/ in the checkout, and the go
# command never reaches the network. Outside a full checkout (no
# ../go.mod) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
gobuild() {
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly go build "$@"
}

(cd "$root/bench" && gobuild -o "$out/ewbench" .)
(cd "$root" && gobuild -o "$out/ewserve" ./cmd/ewserve)

cd "$root"
exec "$out/ewbench" -ewserve "$out/ewserve" -cache "$out/cache" -spans "$out/spans" "$@"
