GO ?= go

.PHONY: ci build vet lint test race race-telemetry deps-check bce-audit bench-smoke overhead-smoke hotspot-accuracy bench-bulk bench-observability bench-gate bench-imbalance clean

# ci is the tier-1 gate plus cheap benchmark compile-and-run checks,
# including the dependency guard, the telemetry-off overhead guard, the
# contention-profiler accuracy check and the benchmark regression gate.
ci: vet lint build test race race-telemetry deps-check bce-audit bench-smoke overhead-smoke hotspot-accuracy bench-gate bench-imbalance

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
#     must contain NO bounds checks at all;
#   - internal/plan/exec.go (plan executor loops) must contain no
#     slice-prologue checks — only the documented irreducible
#     data-dependent gathers (IsInBounds) may remain.
bce-audit:
	@out=$$($(GO) build -gcflags='spray/...=-d=ssa/check_bce' -o /dev/null ./cmd/spraybulk 2>&1); \
	bad=$$(printf '%s\n' "$$out" | grep -E 'internal/core/kernels\.go.*Found Is' || true); \
	if [ -n "$$bad" ]; then \
		echo "bce-audit: bounds checks crept into the audited kernels:"; \
		printf '%s\n' "$$bad"; exit 1; \
	fi; \
	bad=$$(printf '%s\n' "$$out" | grep -E 'internal/plan/exec\.go.*Found IsSliceInBounds' || true); \
	if [ -n "$$bad" ]; then \
		echo "bce-audit: slice-prologue checks crept into the plan executor:"; \
		printf '%s\n' "$$bad"; exit 1; \
	fi; \
	echo "bce-audit: hot accumulate kernels are bounds-check-free"

race:
	$(GO) test -race ./...

# race-telemetry focuses the race detector on the observability layer
# and the concurrent scatter machinery: counter shards, region timing,
# latency histograms, trace rings, panic wrapping, the keeper mailbox
# publish/drain protocol, the index-space contention profiler (sketches,
# top-K tables), and the work-stealing loop runtime (chunk deques, the
# stealer protocol, the adaptive grain controller).
race-telemetry:
	$(GO) test -race -short -run 'Telemetry|Instrument|Timing|WorkerPanic|Concurrent|Trace|Hist|Sample|Latency|Mailbox|Drain|Hotspot|Steal|Deque|Grain' ./internal/telemetry ./internal/par ./internal/core ./internal/memtrack ./internal/experiments ./internal/hotspot .

# deps-check keeps the module free of a live-serving surface: no package
# may import net/http, expvar or os/signal. Telemetry is read through
# Report, the bench JSON, -trace and -hotprofile files instead.
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

# overhead-smoke asserts the telemetry-off budget (the gated accessor must
# stay within 2% of an ungated replica),
# the contention-profiler budget
# (the profiler-enabled keeper accessor must stay within 2% of the
# detached one, and the disabled paths must not allocate), the
# zero-steady-state-alloc contract of the off paths (the steal-schedule
# counters included: a steal loop with telemetry off must not allocate
# in steady state; nor may a telemetry-off Team.Run), and exercises the
# off/on conv benchmarks once — the telemetry layer and the profiler on
# top.
overhead-smoke:
	$(GO) test -run TestTelemetryOffOverhead -count 1 ./internal/core
	$(GO) test -run 'TestHotspotOffOverhead|TestHotspotOffPathNoAlloc|TestHotspotOnPathNoAllocSteadyState|TestOffPathSamplingGateNoAlloc' -count 1 ./internal/core
	$(GO) test -run 'TestStealOffPathNoAlloc|TestRunNoAlloc' -count 1 ./internal/par
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverheadConv|BenchmarkHotspotOverheadConv' -benchtime 20x .

# hotspot-accuracy proves the sampled count-min/top-K profiler agrees
# with the advisor's exact conflict ranking: the sampled top-16 hot
# lines must recover >= 80% of the exactly-computed conflicted lines on
# the conv back-propagation and banded transpose-matrix-vector
# workloads.
hotspot-accuracy:
	$(GO) test -run TestHotspotAccuracy -count 1 ./internal/advisor

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
# must be caught), then records a quick sweep and compares it against
# results/bench_baseline.json. A missing or incomparable baseline is
# bootstrapped from the fresh run; a same-host regression beyond the
# (deliberately wide, smoke-scale) noise band fails the target. The
# plan amortization sweep gates with the wide step-change band
# (-min-rel 0.75): its points are whole cold solves (record+compile
# inside the measurement) run few times per sample, so run-to-run swing
# is far above the conv points'.
bench-gate:
	$(GO) run ./cmd/benchdiff -expect-regression -q cmd/benchdiff/testdata/base.json cmd/benchdiff/testdata/regressed.json
	@mkdir -p results
	$(GO) run ./cmd/spraybulk -n 100000 -max-threads 2 -repeats 2 -min-time 10ms -workload conv -json results/BENCH_gate.json
	$(GO) run ./cmd/benchdiff -gate -sigma 4 -min-rel 0.25 results/bench_baseline.json results/BENCH_gate.json
	$(GO) run ./cmd/spraybulk -n 60000 -max-threads 2 -repeats 2 -min-time 10ms -workload plan -plan-iters 1,4,16 -json results/BENCH_plan.json
	$(GO) run ./cmd/benchdiff -gate -sigma 4 -min-rel 0.75 results/bench_baseline.json results/BENCH_plan.json

# bench-imbalance records the loop-schedule comparison on the
# imbalanced workloads (front-loaded skew, skewed banded transpose
# product, mini-LULESH) plus the uniform conv control, gates it for
# regressions against the shared baseline, then asserts the ranking
# claims with cmd/schedcheck: steal beats dynamic everywhere, beats
# guided in geomean across the imbalanced legs, and stays within
# tolerance of static on the uniform control. results/BENCH_sched.json
# is a tracked artifact. The legs are short
# regions on an oversubscribed 1-core container, so the regression band
# is the wide step-change band (-min-rel 0.75), and schedcheck's uniform
# tolerance is wide (see that command's comment for the keeper
# foreign-parcel artifact forced stealing creates without real
# parallelism).
bench-imbalance:
	@mkdir -p results
	$(GO) run ./cmd/spraybulk -workload imbalance -n 400000 -threads 2,4 -repeats 3 -min-time 30ms -json results/BENCH_sched.json
	$(GO) run ./cmd/benchdiff -gate -sigma 4 -min-rel 0.75 results/bench_baseline.json results/BENCH_sched.json
	$(GO) run ./cmd/schedcheck results/BENCH_sched.json

# clean removes the transient benchmark artifacts (root-level BENCH
# files are stale copies from before results/ became canonical); the
# tracked results/BENCH_sched.json reference is left alone.
clean:
	rm -f BENCH_*.json
	rm -f results/BENCH_bulk.json results/BENCH_observability.json results/BENCH_gate.json results/BENCH_plan.json
	$(GO) clean ./...
