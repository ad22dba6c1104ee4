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
# experiment-wide serial-vs-parallel determinism audit and the golden
# command-stream regressions at full coverage.
test-slow:
	$(GO) vet -tags slow ./...
	$(GO) test -tags slow ./...

# One iteration of every paper-figure benchmark plus the scheduler
# micro-benchmarks, the plain-vs-sharded engine comparisons (the
# multi-channel posted-write stream, the spin and hit-loop contenders
# and the open-loop driver), the planning layer (every experiment's
# Quick plan) and the trace generator (the openloop benchmark's mixed
# and zipf traces), captured as test2json streams for trend tracking.
# Captures are written to a temp file and renamed only on success, so a
# failing benchmark run cannot clobber the previous (committed) capture
# with a partial stream. BENCH_COUNT repeats each gated benchmark; the diff
# tool takes the fastest run, which strips shared-runner noise (CI uses
# BENCH_COUNT=3).
BENCH_COUNT ?= 1

bench:
	$(GO) test -json -run '^$$' -bench=. -benchmem -benchtime=1x . > BENCH_figs.json.tmp
	$(GO) test -json -run '^$$' -bench='Engine|Plan|Generate' -benchmem -count=$(BENCH_COUNT) ./internal/sim ./internal/dram ./internal/system ./internal/harness ./internal/trace > BENCH_engine.json.tmp
	mv BENCH_figs.json.tmp BENCH_figs.json
	mv BENCH_engine.json.tmp BENCH_engine.json
	@echo "wrote BENCH_figs.json and BENCH_engine.json"

# Regenerate the captures and gate the engine, planning and generator
# benchmarks against the committed baselines: >20% ns/op regression, any
# allocation on a baseline-allocation-free path, or a vanished benchmark
# fails (see cmd/pimmu-benchdiff). The baseline is read from git so the fresh run
# cannot compare against itself.
bench-compare:
	git show HEAD:BENCH_engine.json > BENCH_engine.baseline.tmp
	$(MAKE) bench || { rm -f BENCH_engine.baseline.tmp; exit 1; }
	$(GO) run ./cmd/pimmu-benchdiff BENCH_engine.baseline.tmp BENCH_engine.json; \
		status=$$?; rm -f BENCH_engine.baseline.tmp; exit $$status

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
