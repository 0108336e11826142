GO ?= go

.PHONY: ci build vet lint test race race-telemetry deps-check bce-audit bench-smoke overhead-smoke benchmark-module bench-bulk bench-observability bench-gate bench-imbalance clean

# ci is the tier-1 gate plus cheap benchmark compile-and-run checks,
# including the dependency guard, the telemetry-off overhead guard, the
# nested benchmark module's own vet and tests, and the benchmark
# regression gates.
ci: vet lint build test race race-telemetry deps-check bce-audit bench-smoke overhead-smoke benchmark-module bench-gate bench-imbalance

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint holds the reducer core to a staticcheck-clean bar when the tool
# is available (it is not vendored; the target degrades to a notice
# rather than installing anything).
lint:
	$(GO) vet ./internal/core
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/core; \
	else \
		echo "lint: staticcheck not installed; skipped (go vet still ran)"; \
	fi

# -shuffle=on randomizes test execution order within each package, so
# hidden inter-test state dependencies fail in CI instead of lurking.
test:
	$(GO) test -shuffle=on ./...

# bce-audit enforces the bounds-check-elimination contract of the hot
# accumulate kernels. Building through cmd/spraybulk instantiates the
# generic strategies so -d=ssa/check_bce reports real codegen, then:
#   - internal/core/kernels.go (shared contiguous accumulate kernels
#     used by dense, block and keeper)
#     must contain NO bounds checks at all.
bce-audit:
	@out=$$($(GO) build -gcflags='spray/...=-d=ssa/check_bce' -o /dev/null ./cmd/spraybulk 2>&1); \
	bad=$$(printf '%s\n' "$$out" | grep -E 'internal/core/kernels\.go.*Found Is' || true); \
	if [ -n "$$bad" ]; then \
		echo "bce-audit: bounds checks crept into the audited kernels:"; \
		printf '%s\n' "$$bad"; exit 1; \
	fi; \
	echo "bce-audit: hot accumulate kernels are bounds-check-free"

race:
	$(GO) test -race ./...

# race-telemetry focuses the race detector on the observability layer
# and the concurrent scatter machinery: counter shards and their live
# snapshots, region timing, panic wrapping, the keeper mailbox
# publish/drain protocol, and the work-stealing loop runtime (chunk
# deques, the stealer protocol, the adaptive grain controller).
race-telemetry:
	$(GO) test -race -short -run 'Telemetry|Instrument|Timing|WorkerPanic|Concurrent|Mailbox|Drain|Steal|Deque|Grain' ./internal/telemetry ./internal/par ./internal/core ./internal/memtrack ./internal/experiments .

# deps-check keeps the module free of a live-serving surface: no package
# may import net/http, expvar or os/signal. Telemetry is read through
# Report and the bench JSON instead.
deps-check:
	@bad=$$($(GO) list -deps ./... | grep -E '^(net/http|expvar|os/signal)$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: the module imports packages it must not:"; \
		printf '%s\n' "$$bad"; exit 1; \
	fi; \
	echo "deps-check: no net/http, expvar or os/signal in the module's dependencies"

# bench-smoke proves the bulk benchmarks, the Accessor dispatch rungs
# (dense, atomic, block-cas Add), the banded transpose-SpMV (the
# block Scatter path) and the region dispatch rungs of internal/par
# (empty-region fork/join, worker start latency) run end to end without
# timing anything meaningful (100 iterations per case).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkBulk|BenchmarkAblationAddDispatch|BenchmarkFig14S3DKT3M2' -benchtime 100x .
	$(GO) test -run '^$$' -bench 'BenchmarkRegionJoin|BenchmarkRegionDispatch' -benchtime 100x ./internal/par

# overhead-smoke asserts the telemetry-off budget (the counter-gated
# accessor must stay within 2% of an ungated replica), the
# zero-steady-state-alloc contract of the off paths (the steal-schedule
# counters included: a steal loop with telemetry off must not allocate
# in steady state, the team's chunker reset included; nor may a
# telemetry-off Team.Run, nor a ParallelFor region under any schedule),
# and exercises the off/on conv benchmark once.
overhead-smoke:
	$(GO) test -run TestTelemetryOffOverhead -count 1 ./internal/core
	$(GO) test -run TestOffPathSamplingGateNoAlloc -count 1 ./internal/core
	$(GO) test -run 'TestStealOffPathNoAlloc|TestRunNoAlloc|TestParallelForNoAlloc' -count 1 ./internal/par
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverheadConv' -benchtime 20x .

# benchmark-module vets and tests the nested benchmark module, which
# ./... at the root does not reach.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-bulk produces the each-vs-bulk comparison tables and
# results/BENCH_bulk.json at a size that finishes in a few minutes.
# results/ is the canonical home of every benchmark JSON artifact.
bench-bulk:
	$(GO) run ./cmd/spraybulk -json results/BENCH_bulk.json

# bench-observability runs the bulk comparison instrumented: every
# measured point carries its strategy counters in the JSON, and a region
# report per point goes to stdout.
bench-observability:
	$(GO) run ./cmd/spraybulk -n 200000 -max-threads 4 -repeats 1 -min-time 20ms -metrics -json results/BENCH_observability.json

# bench-gate is the benchmark regression gate. It first self-tests the
# detector on the checked-in fixture pair (a synthetic 50% regression
# must be caught), then records a quick sweep into the untracked
# results/BENCH_gate.json and compares it against the tracked
# results/bench_baseline.json. A missing or host-mismatched baseline
# fails the target and prints the command that re-records it; a
# same-host regression beyond the noise band (4 sigma, at least 25% of
# the baseline mean) fails the target too. Each point is 5 samples of at
# least 50 ms, so an unchanged tree's run-to-run spread stays inside that
# band; re-record the baseline with this same sweep.
bench-gate:
	$(GO) run ./cmd/benchdiff -expect-regression -q cmd/benchdiff/testdata/base.json cmd/benchdiff/testdata/regressed.json
	@mkdir -p results
	$(GO) run ./cmd/spraybulk -n 100000 -max-threads 2 -repeats 5 -min-time 50ms -workload conv -json results/BENCH_gate.json
	$(GO) run ./cmd/benchdiff -sigma 4 -min-rel 0.25 results/bench_baseline.json results/BENCH_gate.json

# bench-imbalance records the loop-schedule comparison on the
# imbalanced workloads (front-loaded skew, skewed banded transpose
# product, mini-LULESH) plus the uniform conv control into the
# untracked results/BENCH_sched_run.json, gates it for regressions
# against the tracked results/BENCH_sched.json, then asserts the ranking
# claims on the fresh run with cmd/schedcheck: steal beats dynamic
# everywhere, beats guided in geomean across the imbalanced legs, and
# stays within tolerance of static on the uniform control. It runs at
# t=2 only, one member per core of the 2-core host the baseline was
# recorded on (more members than cores would time-slice them and
# measure the OS scheduler). The legs are short regions, so the
# regression band is the wide step-change band (-min-rel 0.75), and
# schedcheck's uniform tolerance is wide (see that command's comment).
bench-imbalance:
	@mkdir -p results
	$(GO) run ./cmd/spraybulk -workload imbalance -n 400000 -threads 2 -repeats 5 -min-time 30ms -json results/BENCH_sched_run.json
	$(GO) run ./cmd/benchdiff -sigma 4 -min-rel 0.75 results/BENCH_sched.json results/BENCH_sched_run.json
	$(GO) run ./cmd/schedcheck results/BENCH_sched_run.json

# clean removes the transient benchmark artifacts (root-level BENCH
# files are stale copies from before results/ became canonical); the
# tracked results/BENCH_sched.json and results/bench_baseline.json
# baselines are left alone.
clean:
	rm -f BENCH_*.json
	rm -f results/BENCH_bulk.json results/BENCH_observability.json results/BENCH_gate.json results/BENCH_sched_run.json results/figures.json
	$(GO) clean ./...
