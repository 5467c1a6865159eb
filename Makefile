GO ?= go

.PHONY: all check fmt vet staticcheck build test fuzz race reach portable golden trace connsweep-full

all: check

# Behaviour is held by test: cmd/golden compares every output of
# cmd/golden/invocations.txt with its committed golden, and
# internal/bench's TestSteadyStateAllocations holds the fast path's per-op
# allocation budgets.
check: fmt vet staticcheck build test fuzz race reach portable

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
	$(GO) test -run '^$$' -fuzz '^FuzzReassemble$$' -fuzztime 5s ./internal/ipv4
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNode$$' -fuzztime 5s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 5s ./internal/httpd
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 5s ./internal/httpd
	$(GO) test -run '^$$' -fuzz '^FuzzEncode$$' -fuzztime 5s ./internal/httpd
	$(GO) test -run '^$$' -fuzz '^FuzzARPParse$$' -fuzztime 5s ./internal/arp
	$(GO) test -run '^$$' -fuzz '^FuzzSSDStore$$' -fuzztime 5s ./internal/blkback
	$(GO) test -run '^$$' -fuzz '^FuzzTCPParse$$' -fuzztime 5s ./internal/tcp
	$(GO) test -run '^$$' -fuzz '^FuzzOpenFlowInput$$' -fuzztime 5s ./internal/openflow

race: build
	$(GO) test -race ./...

# Reachability: cover builds of every entry point (cmd/repro, cmd/mirage,
# the six examples, benchmark) run in every mode they have
# at quick sizes (cmd/reach/run.sh, ~3 min); then every function under
# internal/ that none of them called must be on cmd/reach/keep.txt with a
# reason, and every line there must still name such a function. Then
# cmd/reach type-checks the module, tests included (~2 s): a struct field
# under internal/ that no code outside tests reads fails the same way,
# unless listed. Every number it measures is rewritten into BENCH_reach.json,
# whatever the verdict: commit the file and read its diff.
reach: build
	@GO="$(GO)" bash cmd/reach/run.sh /tmp/reach
	@$(GO) tool covdata textfmt -i /tmp/reach/cov -o /tmp/reach/cov.txt
	@$(GO) tool covdata func -i /tmp/reach/cov | $(GO) run ./cmd/reach cmd/reach/keep.txt /tmp/reach/cov.txt

# Outputs are a function of the inputs, not of the host: the goldens hold
# on a 32-bit build and with FMA switched off, and an arm64 build fuses no
# multiply-add in internal/ (read from the compiler's listing, which the
# build cache replays; nothing runs on arm64). Like reach, outside go test.
portable: build
	GOARCH=386 $(GO) test -count=1 ./cmd/golden
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./cmd/golden
	@if GOARCH=arm64 $(GO) build -gcflags='repro/internal/...=-S' ./internal/... 2>&1 | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b'; then \
		echo "portable: fused multiply-adds in internal/ on arm64"; exit 1; \
	fi

# Rewrites cmd/golden/testdata and BENCH_{scalesweep,racksweep,kvsweep}.json
# from the tree, after a change that moves an output on purpose.
golden: build
	$(GO) run ./cmd/golden

# Full 1M-connection sweep with heap sampling -> BENCH_connsweep.json.
# Minutes of wall clock; regenerate after changes to the TCP or timer path.
connsweep-full: build
	$(GO) run ./cmd/repro -experiment connsweep -memstats -json BENCH_connsweep.json

# Quick smoke: run one experiment with tracing and validate the output.
trace:
	$(GO) run ./cmd/repro -experiment fig10 -quick -trace /tmp/repro-trace.json -metrics
	@echo "trace written to /tmp/repro-trace.json (load in Perfetto / chrome://tracing)"
