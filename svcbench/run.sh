#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash svcbench/run.sh --workload warm-resubmit --seed 1 --seconds 25 --trace 0
#   bash svcbench/run.sh compare before.txt after.txt
#
# Everything the build writes stays in .bench_build/ at the root: the Go
# build cache, its temporary files and the binary. Without the
# repository around this directory (its go.mod and internal/ packages)
# the build fails and the script exits non-zero without printing a
# result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0

# The commit is stamped only when the root is itself a git work tree.
SVCBENCH_COMMIT=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	SVCBENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
fi
export SVCBENCH_COMMIT

(cd "$root/svcbench" && go build -trimpath -o "$build/svcbench" .) >&2
cd "$root"
exec "$build/svcbench" "$@"
