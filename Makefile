GO ?= go

.PHONY: check fmt vet lint build test test-slow bench bench-compare profile serve serve-smoke

# The tier-1 gate: formatting, static checks, build, tests.
check: fmt lint build test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static checks: go vet plus the import layering rules — the harness
# compute-phase rule, serve's no-internal/system rule, and serve/api's
# purity rule; see cmd/pimmu-lint.
lint: vet
	$(GO) run ./cmd/pimmu-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The nightly tier: everything above plus the slow-tagged suites — the
# experiment-wide serial-vs-parallel determinism audit, the render
# goldens, and every experiment's paper claims.
test-slow:
	$(GO) vet -tags slow ./...
	$(GO) test -tags slow ./...

# The scheduler micro-benchmarks, the plain-vs-sharded engine
# comparisons (the multi-channel posted-write stream, the spin and
# hit-loop contenders and the open-loop driver), the planning layer
# (every experiment's Quick plan) and the trace generator (the openloop
# benchmark's mixed and zipf traces), captured as a test2json stream for
# trend tracking. The paper figures are not benchmarks: their stated
# shapes are checked claims in the slow tier (internal/harness
# claims_slow_test.go). The capture is written to a temp file and
# renamed only on success, so a failing benchmark run cannot clobber the
# previous (committed) capture with a partial stream. BENCH_COUNT
# repeats each gated benchmark; the diff tool takes the fastest run,
# which strips shared-runner noise (CI uses BENCH_COUNT=3).
BENCH_COUNT ?= 1
BENCH_PKGS = ./internal/sim ./internal/dram ./internal/system ./internal/harness ./internal/trace
BENCH_RUN = $(GO) test -json -run '^$$' -bench='Engine|Plan|Generate' -benchmem

bench:
	$(BENCH_RUN) -count=$(BENCH_COUNT) $(BENCH_PKGS) > BENCH_engine.json.tmp
	mv BENCH_engine.json.tmp BENCH_engine.json
	@echo "wrote BENCH_engine.json"

# Regenerate the capture and gate the engine, planning and generator
# benchmarks against HEAD measured on this host: >20% ns/op regression,
# any allocation on a baseline-allocation-free path, or a vanished
# benchmark fails (see cmd/pimmu-benchdiff). HEAD is checked out in a
# temporary git worktree outside the repository, which is removed
# afterwards. The two sides run package by package, alternating, for
# BENCH_COUNT rounds, so load drift on a shared host hits both alike;
# the diff keeps each benchmark's fastest run. Rounds default to 5 here
# because on a shared host single captures of the same code spread by
# more than the 20% bound. The working tree's capture lands in
# BENCH_engine.json. The CI bench job does the same against HEAD^.
bench-compare: BENCH_COUNT = 5
bench-compare:
	@base=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$base/head"; rm -rf "$$base"' EXIT; \
	git worktree add --detach -q "$$base/head" HEAD || exit 1; \
	for i in $$(seq $(BENCH_COUNT)); do for p in $(BENCH_PKGS); do \
		echo "bench-compare: round $$i, $$p"; \
		(cd "$$base/head" && $(BENCH_RUN) $$p) >> "$$base/head.json" || exit 1; \
		$(BENCH_RUN) $$p >> "$$base/work.json" || exit 1; \
	done; done; \
	cp "$$base/work.json" BENCH_engine.json && echo "wrote BENCH_engine.json"; \
	$(GO) run ./cmd/pimmu-benchdiff "$$base/head.json" BENCH_engine.json

# CPU- and heap-profile a representative simulation-heavy experiment on
# the plain engine, the one every default run uses, through the shared
# -cpuprofile/-memprofile Runner flags of `pimmu run`.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
# Override PROFILE_EXPERIMENT / PROFILE_FLAGS to aim the profiler
# elsewhere (PROFILE_FLAGS='-shards auto' profiles the sharded engine).
PROFILE_EXPERIMENT ?= headline
PROFILE_FLAGS ?=

profile:
	$(GO) run ./cmd/pimmu run $(PROFILE_FLAGS) \
		-cpuprofile cpu.pprof -memprofile mem.pprof $(PROFILE_EXPERIMENT)
	@echo "wrote cpu.pprof and mem.pprof"

# Run the sweep server locally (override SERVE_FLAGS to change the
# address, worker bounds, or cache directory; see cmd/pimmu-serve).
SERVE_FLAGS ?= -addr localhost:8080

serve:
	$(GO) run ./cmd/pimmu-serve $(SERVE_FLAGS)

# Boot the server on an ephemeral port and drive one quick job through
# the real HTTP surface — submit, event stream, result fetch — as a
# self-test. fig8 actually simulates, so the smoke exercises progress
# events, the worker pool, and the structured-result path end to end.
serve-smoke:
	$(GO) run ./cmd/pimmu-serve -smoke fig8
