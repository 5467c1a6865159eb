#!/usr/bin/env bash
# The measuring half of `make reach`: builds every entry point of the tree
# with coverage instrumentation into $1/bin and runs each in every mode it
# has, at quick sizes, with GOCOVERDIR=$1/cov. cmd/reach then reads the merged
# report. Plain -cover instruments every package of this module a binary
# links; -coverpkg=repro/internal/... would leave package main out and the
# binary would then write no counters at all.
set -euo pipefail
out=$1 b=$1/bin t=$1/tmp
rm -rf "$out" && mkdir -p "$b" "$t" "$out/cov"
for p in cmd/repro cmd/mirage benchmark examples/*; do
	${GO:-go} build -cover -o "$b/$(basename "$p")" "./$p"
done
export GOCOVERDIR=$out/cov
q() { "$@" >/dev/null 2>&1 </dev/null || { echo "reach: failed: $*" >&2; exit 1; }; }
bad() { local s=0; "$@" >/dev/null 2>&1 </dev/null || s=$?; [ "$s" = 2 ] || { echo "reach: exit $s, want 2: $*" >&2; exit 1; }; } # usage errors

# Every invocation the golden check holds (cmd/golden/invocations.txt), in $t.
while read -r name cmd; do
	case $name in '' | '#'*) continue ;; esac
	(cd "$t" && q "$b"/$cmd)
done <cmd/golden/invocations.txt
# What no golden holds: usage errors, -memstats, profiles, the full-size
# fig7a and sharded fleet, and the benchmark.
bad "$b/repro" -experiment no-such-experiment
bad "$b/repro" -loss 2
bad "$b/repro" -experiment fig6,nosuch
bad "$b/repro" -experiment fig6,scalesweep -quick -lb-policy bogus
bad "$b/repro" -experiment fig6 -pcpus -3
bad "$b/mirage" boot -loss 0.1
bad "$b/mirage" build -trace "$t/build.trace"
q "$b/repro" -quick -json "$t/a.json" -metrics -trace "$t/a.trace" -domstat -memstats
q "$b/repro" -experiment fig10 -quick -cpuprofile "$t/cpu.pb" -memprofile "$t/mem.pb"
q "$b/repro" -experiment fig7a # full size: past the 5 M live window, threads terminate (Heap.Release)
q "$b/repro" -experiment scalesweep -pcpus 4 -replicas-max 8 # full size: fills a TX ring and an accept backlog
q "$b/benchmark" -reps 1 -layers -traced -out "$t/bench_out"
