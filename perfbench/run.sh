#!/usr/bin/env bash
# Builds the system under test (hlbuild, hlserve) and the benchmark from
# source, then runs one benchmark workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload point-reads --seed 1 --seconds 10 --trace 0
#
# Every file it writes stays under .bench_build/ at the root: the Go
# build cache, the binaries, the generated inputs (removed when the run
# ends) and the per-run results and spans.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

# The program under test is the repository's own module; without it
# (a tree holding only the benchmark) the build fails and so does the run.
go build -o "$out/bin/" ./cmd/hlbuild ./cmd/hlserve >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
