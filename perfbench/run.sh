#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it, passing every argument through. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload kv-update --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the nodes' data
# directories and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
