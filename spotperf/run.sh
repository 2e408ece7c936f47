#!/usr/bin/env bash
# Builds the spotperf harness and the spotd daemon from this checkout
# and runs one benchmark workload. Run from the repository root:
#
#   bash spotperf/run.sh --workload ingest_d100 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binaries, daemon data
# and logs, spans and per-run details.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
# The go command's own settings and telemetry live under the user's
# config directory; keep them in the build directory as well.
export XDG_CONFIG_HOME="$build/config"

# The harness module replaces the spot module with the checkout root,
# so both binaries build from the sources under test.
(cd "$bench_dir" && go build -o "$build/bin/spotperf" . && go build -o "$build/bin/spotd" spot/cmd/spotd)

exec "$build/bin/spotperf" -spotd "$build/bin/spotd" -work "$build/work" -root "$root" "$@"
