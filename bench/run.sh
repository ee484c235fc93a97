#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the Go toolchain writes stays under .bench_build/ in
# the checkout. Arguments are passed through to the program; see README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local

# The program imports the repository's packages through the replace
# directive in go.mod, so this fails where the repository is not around it.
(cd "$root/bench" && go build -o "$build/ddbench" .) >&2

cd "$root"
exec "$build/ddbench" "$@"
