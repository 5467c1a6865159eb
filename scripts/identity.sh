#!/usr/bin/env bash
# Byte-identity against a base revision: builds cmd/repro and cmd/mirage from
# BASE and from the working tree, runs both through the same invocations and
# cmps every pair of outputs. Exits 1 naming the first file that differs.
#
#   bash scripts/identity.sh BASE [WORKDIR]      # or: make identity BASE=<rev>
#
# Invocations: every `repro -list` id at -quick -json -metrics -trace (stdout,
# json, trace); the Makefile's PARITY_EXPS the same way at -pcpus 4; `mirage
# boot -trace` (stdout, trace) and `mirage top` for each appliance. BASE is
# extracted with `git archive`, which is local, needs no network and leaves
# nothing registered in .git. Each side runs in its own directory with the
# same relative output paths, so a path echoed on stdout compares equal too.
# stderr carries wall-clock times and is not compared.
set -euo pipefail
base=${1:?usage: identity.sh BASE [WORKDIR]}
work=${2:-/tmp/identity}
parity=${PARITY_EXPS:-ping losssweep scalesweep connsweep racksweep kvsweep}
appliances="dns web openflow-switch openflow-controller" # as cmd/reach/run.sh
go=${GO:-go}

rm -rf "$work"
mkdir -p "$work/src" "$work/base" "$work/head"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$work/src"
(cd "$work/src" && $go build -o "$work/base/repro" ./cmd/repro && $go build -o "$work/base/mirage" ./cmd/mirage)
$go build -o "$work/head/repro" ./cmd/repro
$go build -o "$work/head/mirage" ./cmd/mirage

ids=$("$work/head/repro" -list | awk '{print $1}')
for side in base head; do
	bin=$work/$side out=$work/$side/out
	mkdir -p "$out"
	(
		cd "$out"
		for e in $ids; do
			"$bin/repro" -experiment "$e" -quick -json "$e.json" -metrics -trace "$e.trace" >"$e.out" 2>/dev/null
		done
		for e in $parity; do
			"$bin/repro" -experiment "$e" -quick -pcpus 4 -json "$e.p4.json" -metrics -trace "$e.p4.trace" >"$e.p4.out" 2>/dev/null
		done
		for a in $appliances; do
			"$bin/mirage" boot -appliance "$a" -trace "boot-$a.trace" >"boot-$a.out" 2>/dev/null
			"$bin/mirage" top -appliance "$a" >"top-$a.out" 2>/dev/null
		done
	) || { echo "identity: $side run failed" >&2; exit 1; }
done

n=0
for f in $(cd "$work/base/out" && ls); do
	if ! cmp "$work/base/out/$f" "$work/head/out/$f"; then
		echo "identity FAIL: $f differs from $base (first differing file; outputs in $work)" >&2
		exit 1
	fi
	n=$((n + 1))
done
if [ "$(ls "$work/head/out" | wc -l)" -ne "$n" ]; then
	echo "identity FAIL: the two sides wrote different sets of files (outputs in $work)" >&2
	exit 1
fi
echo "identity OK: $n outputs byte-identical to $base"
