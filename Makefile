GO ?= go
BENCH_COUNT ?= 6
BASE ?= origin/main
THRESHOLD ?= 15
# The benchmarks the regression gate watches. Keep in sync with the
# bench-regression job in .github/workflows/ci.yml.
BENCH_MATCH := ^Benchmark(PlannerCold|PlannerCached|ExactA2A|ExactX2Y|ExecBatch|ExecStream|SessionDelta|CoverSet|Auditor)

.PHONY: test bench bench-compare baselines

test: ## tier-1: build everything, run every test
	$(GO) build ./... && $(GO) test ./...

bench: ## one pass over the regression-gated benchmark suite (stdout)
	@$(GO) test -run '^$$' -bench 'BenchmarkCoverSet' -count=$(BENCH_COUNT) -benchtime=0.2s ./internal/core \
	  && $(GO) test -run '^$$' -bench 'BenchmarkAuditor' -count=$(BENCH_COUNT) -benchtime=0.2s ./internal/exec \
	  && $(GO) test -run '^$$' -bench 'BenchmarkPlannerCold$$|BenchmarkPlannerCached$$|BenchmarkExactA2A$$|BenchmarkExactX2Y$$|BenchmarkExecBatch$$|BenchmarkExecStream$$' -count=$(BENCH_COUNT) -benchtime=0.3s . \
	  && $(GO) test -run '^$$' -bench 'BenchmarkSessionDelta' -count=$(BENCH_COUNT) -benchtime=0.3s ./internal/stream

bench-compare: ## bench BASE (temp worktree) and HEAD, fail on significant >THRESHOLD% slowdown
	rm -rf /tmp/repro-bench-base
	git worktree add --detach /tmp/repro-bench-base $(BASE)
	cd /tmp/repro-bench-base && $(MAKE) -f $(CURDIR)/Makefile bench > /tmp/repro-bench-base.txt || true
	git worktree remove --force /tmp/repro-bench-base
	$(MAKE) bench > /tmp/repro-bench-head.txt
	$(GO) run ./cmd/benchdiff -mode=gate -old /tmp/repro-bench-base.txt -new /tmp/repro-bench-head.txt \
	  -threshold $(THRESHOLD) -match '$(BENCH_MATCH)'

baselines: ## regenerate the committed BENCH_*.json from a fresh suite run
	$(MAKE) bench > /tmp/repro-bench-baseline.txt
	$(GO) run ./cmd/benchdiff -mode=baseline -in /tmp/repro-bench-baseline.txt -out BENCH_core.json \
	  -match '^Benchmark(CoverSet|Auditor|PlannerCold|PlannerCached|ExactA2A|ExactX2Y|ExecBatch)' \
	  -note "bitset core hot paths: CoverSet primitives, auditor verification, planner cold/cached solves, bounded exact search, batch execution; regenerate with 'make baselines'"
	$(GO) run ./cmd/benchdiff -mode=baseline -in /tmp/repro-bench-baseline.txt -out BENCH_stream.json \
	  -match '^BenchmarkSessionDelta' \
	  -note "m=1k churn (remove oldest, add replacement) at q=1024, uniform sizes [1,64]: incremental repair vs cheapest full re-solve per delta; regenerate with 'make baselines'"
	$(GO) run ./cmd/benchdiff -mode=baseline -in /tmp/repro-bench-baseline.txt -out BENCH_exec.json \
	  -match '^BenchmarkExecStream' \
	  -note "streaming pipeline end to end: 1500-doc similarity join (1.12M pairs) fed through pkg/assign Source/Each, planned from cache, audit on, no spill; regenerate with 'make baselines'"
