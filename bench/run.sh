#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs
# it with the arguments given. Everything the build writes — binary,
# Go build cache, temporary files — stays under .bench_build/ at the
# checkout root, so a run touches nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -C "$root/bench" -buildvcs=false -o "$build/scaldift-bench" .
cd "$root"
exec "$build/scaldift-bench" "$@"
