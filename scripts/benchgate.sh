#!/bin/sh
# Perf-regression gate: re-measure the sweep benchmark and compare it
# against the committed baseline (BENCH_sweep.json), failing on >15%
# regression. The baseline holds only what the gate reads: virtual-time
# sweep costs and per-entry allocation counts, so the gate is hardware-
# and load-independent (wall-clock lives in bench/). The diff microbench
# and fleet run at a lighter scale than the committed baseline; the
# gated metrics are scale-invariant.
# The shard-scaling curve and the million-host mega sweep run at full
# scale (they are synthetic and finish in seconds) so their virtual
# makespans match the baseline's (hosts, shards) keys exactly.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp /tmp/bench_candidate.XXXXXX.json)
trap 'rm -f "$tmp"' EXIT

go run ./cmd/paperbench -sweepbench -reps 2 -fleetLarge 100 -diffEntries 200000 -out "$tmp"
go run ./cmd/paperbench -benchgate -baseline BENCH_sweep.json -candidate "$tmp"
