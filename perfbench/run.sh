#!/usr/bin/env bash
# Builds icicle-serve and the perfbench program from source into
# .bench_build/ (Go caches included, so nothing is written outside the
# checkout), then runs perfbench with the given arguments.
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 36 --trace 0
#   bash perfbench/run.sh repin | refs | compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/icicle-serve ]]; then
	echo "perfbench: no icicle sources (go.mod, cmd/icicle-serve) in $(pwd)" >&2
	exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# Go telemetry off: in a fresh config directory the first go command
# otherwise starts a detached upload process that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/icicle-serve" ./cmd/icicle-serve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
