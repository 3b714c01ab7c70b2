#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything it writes stays under benchmark/.build and
# benchmark/.work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache" GOPATH="$here/.build/gopath" XDG_CONFIG_HOME="$here/.build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$here/.build"
(cd "$here" && go build -o .build/ethkv-benchmark .)
exec "$here/.build/ethkv-benchmark" -dir "$here/.work" -spec "$here/../BENCHMARK.json" "$@"
