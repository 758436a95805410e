#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds cmd/e2ebench from source
# inside the checkout — binary, Go build cache, Go temporary files and the
# index files of the file-backed workloads all live under .bench_build, so
# nothing outside the checkout is written — and runs it with the driver's
# arguments. Outside a checkout of the module there is no go.mod and the
# script exits non-zero before it starts anything.
#
# The go command of Go 1.23+ starts a detached telemetry child the first time
# it sees a configuration directory; with a fresh XDG_CONFIG_HOME that is
# every first run in a checkout, and the child outlives this script. The mode
# file below turns telemetry off for this configuration directory, so go
# starts no process that the script does not wait for.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f go.mod ]; then
	echo "run.sh: no go.mod in $PWD: not a checkout of the module" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off
go build -o "$build/e2ebench" ./cmd/e2ebench
exec "$build/e2ebench" -workdir "$build" "$@"
