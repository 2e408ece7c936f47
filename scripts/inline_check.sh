#!/usr/bin/env bash
# Inlining guard for the ingest hot loops. The per-(subspace, point)
# paths of the shard verdict loops and the table's touch loops are free
# of function calls only while the compiler keeps inlining a few small
# helpers; a later edit that pushes one of them over the inline budget
# would silently put a call back on every pair. This script asks the
# compiler (go build -gcflags=-m) and fails when any of them stops
# reporting "can inline".
#
# Usage: scripts/inline_check.sh   (run by `make lint`)
set -euo pipefail
cd "$(dirname "$0")/.."

# One extended regexp per guarded function, matched against the whole
# diagnostic suffix so a longer name with the same prefix cannot pass.
guarded=(
  '\(\*DecayTable\)\.At'
  'cellHash'
  'allPass'
)

out=$(go build -gcflags=-m ./internal/core ./internal/stream 2>&1)
status=0
for fn in "${guarded[@]}"; do
  if ! grep -qE ": can inline ${fn}\$" <<<"$out"; then
    echo "inline_check.sh: ${fn//\\/} is no longer inlinable; keep its common path within the inline budget" >&2
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "inline_check.sh: ${#guarded[@]} hot-path helpers inline"
fi
exit $status
