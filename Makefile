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

# Static checks: go vet (also over the slow-tagged test files, so a
# change that breaks their build fails here rather than in the nightly
# tier), the import layering rules — the harness compute-phase rule,
# serve's no-internal/system rule, serve/api's purity rule, and the
# trace and prim import limits — and the dead-export rule: every
# exported name in internal/, methods and interface methods included,
# needs a non-test reader, resolved by the type checker over the root
# and bench/ modules, or a //pimmu:keep reason; see cmd/pimmu-lint.
lint: vet
	$(GO) vet -tags slow ./...
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
# which strips shared-runner noise (CI uses BENCH_COUNT=3). BENCH_RUN
# runs the one package named by the shell variable p: internal/sim's
# rows run at 8-40 ns/op, and there a fixed 3e8 iterations per row
# spread less between captures of one tree than the default 1 s
# benchtime (worst row 1.37x to 1.32x max/min over 10 captures).
BENCH_COUNT ?= 1
BENCH_PKGS = ./internal/sim ./internal/dram ./internal/system ./internal/harness ./internal/trace
BENCH_RUN = $(GO) test -json -run '^$$' -bench='Engine|Plan|Generate' -benchmem \
	$$([ "$$p" = ./internal/sim ] && echo -benchtime=300000000x)

bench:
	for p in $(BENCH_PKGS); do $(BENCH_RUN) -count=$(BENCH_COUNT) $$p || exit 1; done > BENCH_engine.json.tmp
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
# more than the 20% bound. When the only failures are ns/op ones, the
# diff names their packages on a "rerun:" line; those packages alone
# run BENCH_COUNT more alternating rounds on both sides, and the gate is
# taken again on each row's fastest run across all rounds. The bounds
# and the allocation and vanished-row gates are the same both times.
# The working tree's capture lands in BENCH_engine.json. The CI bench
# job does the same against HEAD^, without the rerun.
bench-compare: BENCH_COUNT = 5
bench-compare:
	@base=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$base/head"; rm -rf "$$base"' EXIT; \
	git worktree add --detach -q "$$base/head" HEAD || exit 1; \
	rounds() { for i in $$(seq $(BENCH_COUNT)); do for p in "$$@"; do \
		echo "bench-compare: round $$i, $$p"; \
		(cd "$$base/head" && $(BENCH_RUN) $$p) >> "$$base/head.json" || exit 1; \
		$(BENCH_RUN) $$p >> "$$base/work.json" || exit 1; \
	done; done; cp "$$base/work.json" BENCH_engine.json && echo "wrote BENCH_engine.json"; }; \
	gate() { $(GO) run ./cmd/pimmu-benchdiff "$$base/head.json" BENCH_engine.json > "$$base/diff.txt"; \
		status=$$?; cat "$$base/diff.txt"; }; \
	rounds $(BENCH_PKGS); gate; \
	rerun=$$(sed -n 's/^rerun: //p' "$$base/diff.txt"); \
	if [ $$status -ne 0 ] && [ -n "$$rerun" ]; then \
		echo "bench-compare: ns/op failures only; $(BENCH_COUNT) more rounds of $$rerun"; \
		rounds $$rerun; gate; \
	fi; \
	exit $$status

# CPU- and heap-profile a representative simulation-heavy experiment
# through the shared -cpuprofile/-memprofile Runner flags of `pimmu run`.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
# Override PROFILE_EXPERIMENT / PROFILE_FLAGS to aim the profiler
# elsewhere (PROFILE_FLAGS='-workers 1' profiles the serial sweep).
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
