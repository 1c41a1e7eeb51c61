GO ?= go

.PHONY: all vet build test race stress fuzz-smoke crosscheck-smoke chaos dispatch-soak dispatch-soak-smoke cluster-smoke crash-smoke vulncheck ci perfbench-check conform conform-smoke cover serve loadtest bench bench-smoke clean

all: build

# vet also fails when any Go file needs gofmt.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need formatting:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race stress (nightly in CI): the concurrent serving packages, many
# repetitions at one and four procs under the race detector.
stress:
	$(GO) test -count=50 -cpu=1,4 -race ./internal/cluster ./internal/dispatch ./internal/journal ./internal/metric ./internal/server

# Short differential-fuzz pass: every registered scheduler against the
# independent oracles on randomized instances, the journal replay
# engine against arbitrary log bytes, the validator's sweep against
# its naive all-pairs reference on arbitrary segment lists, and the
# pre-encoded schedule replies, the spliced journal records and the
# segment arrays behind both (through one pooled float cache) against
# encoding/json. The
# checked-in corpus under testdata/fuzz/ also replays during plain
# `make test`.
# -fuzzminimizetime=0x skips corpus minimization, which dominates wall
# clock on short runs without improving coverage.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzSchedulers -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz=FuzzJournalReplay -fuzztime=10s -fuzzminimizetime=0x ./internal/journal
	$(GO) test -run '^$$' -fuzz=FuzzAudit -fuzztime=10s -fuzzminimizetime=0x ./internal/check
	$(GO) test -run '^$$' -fuzz=FuzzEncodedResponse -fuzztime=10s -fuzzminimizetime=0x ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzJournalRecord -fuzztime=10s -fuzzminimizetime=0x ./internal/dispatch
	$(GO) test -run '^$$' -fuzz=FuzzSegmentArray -fuzztime=10s -fuzzminimizetime=0x ./internal/segjson

# Short soak of the differential harness: every registered scheduler
# against every oracle (validator, simulator, max-flow feasibility,
# convex optimum and its realized schedule, brute force) on 20 random
# instances. Longer soaks: go run ./cmd/crosscheck -n 500 -seed 77.
crosscheck-smoke:
	$(GO) run ./cmd/crosscheck -n 20 -seed 1

# Fault-injection soak: schedd under every injection point, validating
# client, zero crashes and zero invalid schedules tolerated. Tune with
# CHAOS_DURATION / CHAOS_SEED / CHAOS_BUILDFLAGS (e.g. -race).
chaos:
	sh scripts/chaos.sh

# Streaming-session soak: many concurrent /v1/sessions lifecycles with
# Poisson arrivals, client-side validation of every committed prefix,
# competitive-ratio reporting, and a graceful-drain check with a live
# SSE subscriber. Tune with SOAK_SESSIONS / SOAK_BATCHES / SOAK_SEED /
# SOAK_BUILDFLAGS (e.g. -race).
dispatch-soak:
	sh scripts/dispatch_soak.sh

# Small PR-time variant of the same soak under the race detector.
dispatch-soak-smoke:
	SOAK_SESSIONS=8 SOAK_BATCHES=8 SOAK_BUILDFLAGS=-race sh scripts/dispatch_soak.sh

# Cluster smoke: 3 schedd backends behind a schedrouter, >= 50
# concurrent streaming sessions through the router, one backend
# SIGKILLed mid-run. All sessions must finish via snapshot/restore
# migration with 0 validator failures and 0 SSE sequence gaps.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Crash-recovery smoke: one journaled schedd (-data-dir), >= 25
# streaming sessions with reconnecting SSE subscribers, the daemon
# SIGKILLed mid-run and restarted over the same data dir. The committed
# prefixes must survive verbatim (schedjournal verify against the
# post-crash baseline), every session must finish with 0 validator
# failures, and the deduped event streams must stay gapless.
crash-smoke:
	sh scripts/crash_smoke.sh

# Known-vulnerability scan, skipped quietly where the tool isn't
# installed (it needs network access to fetch the vuln DB).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

ci: vet build test race fuzz-smoke crosscheck-smoke conform-smoke dispatch-soak-smoke cluster-smoke crash-smoke cover perfbench-check vulncheck

# The benchmark under perfbench/ is a separate Go module, so the root
# build and test skip it; compile and test it here so a change to an
# API it imports fails CI rather than the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full metamorphic conformance matrix (nightly soak): every registered
# scheduler × every generator regime × every relation, with minimized
# reproducers fed back into the fuzz corpus. Zero violations expected.
CONFORM_INSTANCES ?= 10000
CONFORM_SEED ?= 1
conform:
	$(GO) run ./cmd/conform -instances $(CONFORM_INSTANCES) -seed $(CONFORM_SEED) \
		-o conform-report.json -corpus testdata/fuzz/FuzzSchedulers

# Small PR-time conformance matrix under the race detector.
conform-smoke:
	$(GO) run -race ./cmd/conform -smoke -o conform-smoke.json

# Coverage gate: total statement coverage must not drop below the floor
# recorded when the gate was introduced (75.1% at the time; floor set
# slightly under to absorb run-to-run fuzz-seed noise).
COVER_MIN ?= 74.0
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_MIN))}" || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% gate"; exit 1; }

# Run the HTTP scheduling daemon on :8080 (override: make serve ADDR=:9090).
ADDR ?= :8080
serve:
	$(GO) run ./cmd/schedd -addr $(ADDR)

# Drive a closed loop against a running daemon and validate every response.
LOAD_ADDR ?= http://localhost:8080
loadtest:
	$(GO) run ./cmd/schedload -addr $(LOAD_ADDR) -duration 10s

# Run the fixed solver benchmark matrix into an untracked report,
# comparing against the committed baseline. To extend the committed
# trajectory: make bench BENCH_OUT=BENCH_pr5.json.
BENCH_OUT ?= bench-latest.json
BENCH_PREV ?= BENCH_pr4.json
bench:
	$(GO) run ./cmd/schedbench -o $(BENCH_OUT) $(if $(BENCH_PREV),-prev $(BENCH_PREV))

# Small-case benchmark smoke for CI: exercises the matrix end to end
# without meaningful machine-time cost, then runs every benchmark of
# the packages with a kernel_bench_test.go once, so the per-layer
# kernel benchmarks keep compiling and running, with -benchmem, so the
# log shows what each allocates per op.
KERNEL_BENCH_PKGS = $(patsubst %/kernel_bench_test.go,./%,$(shell find internal -name kernel_bench_test.go))
bench-smoke:
	$(GO) run ./cmd/schedbench -quick -o bench-smoke.json
	cat bench-smoke.json
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem $(KERNEL_BENCH_PKGS)

clean:
	$(GO) clean ./...
	rm -f conform-report.json conform-smoke.json cover.out bench-smoke.json bench-latest.json
