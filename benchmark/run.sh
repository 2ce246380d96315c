#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark binary from this
# checkout and runs it, keeping every build product inside the checkout
# (.bench_build/), so nothing is read from or written to the user's Go cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
# The go tool's own state (build cache, temporaries, module cache, telemetry
# counters under the config directory) is redirected into the checkout too.
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath" \
	XDG_CONFIG_HOME="${out}/config" GOTOOLCHAIN=local GOWORK=off
(cd "${root}/benchmark" && go build -o "${out}/bin/jbsperf" .)
exec "${out}/bin/jbsperf" -root "${root}" "$@"
