#!/usr/bin/env bash
# Builds the benchmark, the dmpd daemon and dmpexp from this checkout's
# sources and runs one workload. From the repository root:
#
#   bash perfbench/run.sh --workload grizzly-week --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files go to $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. The last line of stdout is
# the JSON result; build and progress messages go to stderr.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$build/perfbench" . >&2
go build -o "$build/dmpd" dismem/cmd/dmpd >&2
go build -o "$build/dmpexp" dismem/cmd/dmpexp >&2
exec "$build/perfbench" -dmpd "$build/dmpd" -dmpexp "$build/dmpexp" -go "$(command -v go)" -out "$build" "$@"
