GO ?= go

.PHONY: all check fmt vet staticcheck build test fuzz race reach paritycheck identity trace bench benchdelta benchdelta-all scalesweep racksweep connsweep connsweep-full kvsweep

all: check

# benchdelta-all re-runs racksweep and kvsweep and diffs them exactly against
# the committed JSON, so their own targets (which regenerate the files) are
# not prerequisites here.
check: fmt vet staticcheck build test fuzz race reach paritycheck benchdelta-all connsweep

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Runs only when the binary is on PATH (the base image does not ship it);
# install with: go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Native fuzz targets, a few seconds each on top of the seed corpus every
# plain `go test` already replays (go fuzzes one target per invocation). A
# failing input is written under the package's testdata/fuzz.
fuzz: build
	$(GO) test -run '^$$' -fuzz '^FuzzParseMessage$$' -fuzztime 5s ./internal/dns
	$(GO) test -run '^$$' -fuzz '^FuzzHandle$$' -fuzztime 5s ./internal/dns
	$(GO) test -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 5s ./internal/ipv4
	$(GO) test -run '^$$' -fuzz '^FuzzDHCPParse$$' -fuzztime 5s ./internal/dhcp
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNode$$' -fuzztime 5s ./internal/storage

race: build
	$(GO) test -race ./...

# Reachability: cover builds of every entry point (cmd/repro, cmd/mirage,
# the six examples, benchmark) run in every mode they have
# at quick sizes (cmd/reach/run.sh, ~3 min); then every function under
# internal/ that none of them called must be on cmd/reach/keep.txt with a
# reason, and every line there must still name such a function.
reach: build
	@GO="$(GO)" bash cmd/reach/run.sh /tmp/reach
	@$(GO) tool covdata func -i /tmp/reach/cov | $(GO) run ./cmd/reach cmd/reach/keep.txt

# Determinism of the sharded layout: every experiment in the parity set runs
# twice at the same seed with -pcpus 4, and the two runs' stdout (with the
# metrics dump), structured JSON and trace must match byte for byte.
PARITY_EXPS = ping losssweep scalesweep connsweep racksweep kvsweep
paritycheck: build
	@$(GO) build -o /tmp/repro-parity ./cmd/repro
	@for e in $(PARITY_EXPS); do \
		for r in 1 2; do \
			/tmp/repro-parity -experiment $$e -quick -pcpus 4 \
				-json /tmp/parity_$${e}_$$r.json -metrics -trace /tmp/parity_$${e}_$$r.trace \
				> /tmp/parity_$${e}_$$r.out 2>/dev/null || exit 1; \
		done; \
		cmp /tmp/parity_$${e}_1.out /tmp/parity_$${e}_2.out || { echo "parity FAIL ($$e): stdout"; exit 1; }; \
		cmp /tmp/parity_$${e}_1.json /tmp/parity_$${e}_2.json || { echo "parity FAIL ($$e): json"; exit 1; }; \
		cmp /tmp/parity_$${e}_1.trace /tmp/parity_$${e}_2.trace || { echo "parity FAIL ($$e): trace"; exit 1; }; \
		echo "parity OK: $$e (stdout+metrics, json, trace)"; \
	done

# Byte-identity across commits, for a change that must not move any output:
# every experiment at -quick, the PARITY_EXPS at -pcpus 4 and mirage
# boot/top per appliance, built and run at BASE and at the working tree, then
# cmp'd file by file (scripts/identity.sh). Not in check: it needs a base.
#   make identity BASE=<rev> [IDENTITY_DIR=/tmp/identity]
identity: build
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	@PARITY_EXPS="$(PARITY_EXPS)" GO="$(GO)" bash scripts/identity.sh $(BASE) $(IDENTITY_DIR)

# Wall-clock fast-path microbenchmarks -> BENCH_fastpath.json ("fastpath"
# section; the recorded pre-change "baseline" section is preserved).
bench: build
	$(GO) test -run '^$$' -bench Fastpath -benchmem ./internal/bench | \
		$(GO) run ./cmd/benchjson -out BENCH_fastpath.json -section fastpath

# Re-run the fast-path benches and diff against the committed trajectory
# file; fails when ns/op or allocs/op regressed by more than 10%.
benchdelta: build
	@rm -f /tmp/bench_new.json
	$(GO) test -run '^$$' -bench Fastpath -benchmem ./internal/bench | \
		$(GO) run ./cmd/benchjson -out /tmp/bench_new.json -section fastpath
	$(GO) run ./cmd/benchjson -delta BENCH_fastpath.json /tmp/bench_new.json

# Perf CI: delta every committed BENCH_*.json against fresh output.
#  - fastpath: wall-clock microbenchmarks, re-run and diffed (benchdelta)
#  - scalesweep/racksweep/kvsweep: deterministic virtual-time sweeps, re-run
#    and diffed — any delta at all means the simulation changed
#  - connsweep: full sweep is minutes of wall clock and its heap numbers are
#    host-dependent, so the committed file is self-delta'd as a format gate;
#    the deterministic quick sweep is exercised by the connsweep target
benchdelta-all: benchdelta
	@rm -f /tmp/bench_scalesweep_new.json /tmp/bench_racksweep_new.json
	$(GO) build -o /tmp/repro-bench ./cmd/repro
	/tmp/repro-bench -experiment scalesweep -json /tmp/bench_scalesweep_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_scalesweep.json /tmp/bench_scalesweep_new.json
	/tmp/repro-bench -experiment racksweep -json /tmp/bench_racksweep_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_racksweep.json /tmp/bench_racksweep_new.json
	$(GO) run ./cmd/benchjson -delta BENCH_connsweep.json BENCH_connsweep.json
	@rm -f /tmp/bench_kvsweep_new.json
	/tmp/repro-bench -experiment kvsweep -json /tmp/bench_kvsweep_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_kvsweep.json /tmp/bench_kvsweep_new.json

# Autoscaling fleet sweep -> BENCH_scalesweep.json; runs the experiment
# twice on the same seed and asserts the rendered output is byte-identical.
scalesweep: build
	$(GO) run ./cmd/repro -experiment scalesweep -json BENCH_scalesweep.json > /tmp/scalesweep.1
	$(GO) run ./cmd/repro -experiment scalesweep > /tmp/scalesweep.2
	@cat /tmp/scalesweep.1
	cmp /tmp/scalesweep.1 /tmp/scalesweep.2
	@echo "scalesweep deterministic: same-seed runs byte-identical; JSON in BENCH_scalesweep.json"

# Multi-host rack sweep (live migration + whole-host kill) ->
# BENCH_racksweep.json; runs the experiment twice on the same seed and
# asserts the rendered output is byte-identical.
racksweep: build
	$(GO) run ./cmd/repro -experiment racksweep -json BENCH_racksweep.json > /tmp/racksweep.1
	$(GO) run ./cmd/repro -experiment racksweep > /tmp/racksweep.2
	@cat /tmp/racksweep.1
	cmp /tmp/racksweep.1 /tmp/racksweep.2
	@echo "racksweep deterministic: same-seed runs byte-identical; JSON in BENCH_racksweep.json"

# Durable KV appliance sweep -> BENCH_kvsweep.json; runs the experiment
# twice on the same seed and asserts the rendered output is byte-identical.
kvsweep: build
	$(GO) run ./cmd/repro -experiment kvsweep -json BENCH_kvsweep.json > /tmp/kvsweep.1
	$(GO) run ./cmd/repro -experiment kvsweep > /tmp/kvsweep.2
	@cat /tmp/kvsweep.1
	cmp /tmp/kvsweep.1 /tmp/kvsweep.2
	@echo "kvsweep deterministic: same-seed runs byte-identical; JSON in BENCH_kvsweep.json"

# Million-connection population sweep, small-N gate: runs the quick sweep
# twice on the same seed and asserts the rendered output is byte-identical.
connsweep: build
	@$(GO) build -o /tmp/repro-conn ./cmd/repro
	/tmp/repro-conn -experiment connsweep -quick > /tmp/connsweep.1
	/tmp/repro-conn -experiment connsweep -quick > /tmp/connsweep.2
	cmp /tmp/connsweep.1 /tmp/connsweep.2
	@echo "connsweep deterministic: same-seed quick runs byte-identical"

# Full 1M-connection sweep with heap sampling -> BENCH_connsweep.json.
# Minutes of wall clock; regenerate after changes to the TCP or timer path.
connsweep-full: build
	$(GO) run ./cmd/repro -experiment connsweep -memstats -json BENCH_connsweep.json

# Quick smoke: run one experiment with tracing and validate the output.
trace:
	$(GO) run ./cmd/repro -experiment fig10 -quick -trace /tmp/repro-trace.json -metrics
	@echo "trace written to /tmp/repro-trace.json (load in Perfetto / chrome://tracing)"
