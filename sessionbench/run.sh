#!/usr/bin/env bash
# Builds the session benchmark from the sources of this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash sessionbench/run.sh --workload ctp-campaign --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, the spill store and the span files all go
# under .bench_build/, so the benchmark writes nothing outside the checkout.
# Outside a full checkout (no repository sources next to sessionbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C sessionbench build -buildvcs=false -o "$out/sessionbench" .

commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	if [ "$commit" != unknown ] && [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit="$commit-dirty"
	fi
fi
SESSIONBENCH_COMMIT=$commit exec "$out/sessionbench" --scratch "$out/sessionbench-run" "$@"
