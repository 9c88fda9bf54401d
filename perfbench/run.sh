#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, from the
# repository root:
#
#   bash perfbench/run.sh --workload fl-cia --seed 1 --seconds 30 --trace 0
#
# Arguments are passed on to the benchmark. Without arguments every
# workload runs once untraced (end-to-end metrics) and once traced
# (per-layer metrics), seed 1, 30 seconds each. Everything the build and
# the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the repository root: go.mod or perfbench/main.go is missing" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath" "$out/home" "$out/tmp"
# The toolchain's caches, temporary files and per-user state (telemetry
# counters live under the user's config directory) stay in the checkout.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# VCS stamping only feeds the provenance line; build without it when the
# checkout's version control cannot be queried.
go build -o "$out/perfbench" ./perfbench 2>/dev/null ||
	go build -buildvcs=false -o "$out/perfbench" ./perfbench

# The loopback socket transport creates its unix socket under TMPDIR. A
# relative path keeps it inside the checkout and short of the socket
# path limit.
export TMPDIR=.bench_build/tmp

if (($#)); then
	exec "$out/perfbench" "$@"
fi
status=0
for w in fl-cia gl-cia fl-sampled-socket; do
	for trace in 0 1; do
		"$out/perfbench" --workload "$w" --seed 1 --seconds 30 --trace "$trace" || status=1
	done
done
exit "$status"
