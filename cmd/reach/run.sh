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
q() { "$@" >/dev/null 2>&1 || { echo "reach: failed: $*" >&2; exit 1; }; }
bad() { if "$@" >/dev/null 2>&1; then echo "reach: accepted: $*" >&2; exit 1; fi; } # usage errors

q "$b/repro" -list
bad "$b/repro" -experiment no-such-experiment
bad "$b/repro" -loss 2
q "$b/repro" -quick -json "$t/a.json" -metrics -trace "$t/a.trace" -domstat -memstats
q "$b/repro" -experiment fig10 -quick -metrics -metrics-format prom -cpuprofile "$t/cpu.pb" -memprofile "$t/mem.pb"
for e in ping losssweep scalesweep connsweep racksweep kvsweep; do # the Makefile's PARITY_EXPS
	q "$b/repro" -experiment $e -quick -pcpus 4 -json "$t/s.json" -metrics -trace "$t/s.trace"
done
q "$b/repro" -experiment fig8,losssweep,scalesweep -quick -loss 0.01 -dup 0.01 -reorder 0.01 -jitter 200us
q "$b/repro" -experiment scalesweep -quick -lb-policy least-conns -replicas-min 2 -replicas-max 4 -seed 7
q "$b/repro" -experiment scalesweep -quick -lb-policy hash
q "$b/repro" -experiment scalesweep -pcpus 4 -replicas-max 8 # full size: fills a TX ring and an accept backlog
q "$b/repro" -experiment kvsweep -quick -value-bytes 64 -read-pct 80 -qd-max 16 -seed 3
for a in dns web openflow-switch openflow-controller; do
	q "$b/mirage" build -appliance $a
	q "$b/mirage" build -appliance $a -no-dce
	q "$b/mirage" graph -appliance $a
	q "$b/mirage" top -appliance $a
	q "$b/mirage" boot -appliance $a -trace "$t/boot.json" -loss 0.01 -jitter 100us
done
q "$b/mirage" list
q "$b/mirage" experiment -list
q "$b/mirage" experiment -id scalesweep -quick -domstat
for e in examples/*; do q "$b/$(basename "$e")"; done
q "$b/benchmark" -reps 1 -layers -traced -out "$t/bench_out"
