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
# accumulate kernels. Building through cmd/sprayall instantiates the
# generic strategies so -d=ssa/check_bce reports real codegen, then:
#   - internal/core/kernels.go (shared contiguous accumulate kernels
#     used by dense, block and keeper)
#     must contain NO bounds checks at all.
bce-audit:
	@out=$$($(GO) build -gcflags='spray/...=-d=ssa/check_bce' -o /dev/null ./cmd/sprayall 2>&1); \
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
# publish/drain protocol, the block accessors' windows (which must not
# outlive their region), and the work-stealing loop runtime (chunk
# deques, the stealer protocol, the adaptive grain controller).
race-telemetry:
	$(GO) test -race -short -run 'Telemetry|Instrument|Timing|WorkerPanic|Concurrent|Mailbox|Drain|Window|Steal|Deque|Grain' ./internal/telemetry ./internal/par ./internal/core ./internal/memtrack ./internal/experiments .

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

# bench-smoke proves the Accessor dispatch rungs (dense, atomic,
# block-cas Add), the block Scatter microbenchmark (block-cas against
# dense and the plain loop on banded and random batches), the conv
# back-propagation competitors (the Figure 9 loop, the tile-combined
# sequential loop and keeper at 1 and 2 members), the banded
# transpose-SpMV figure (the block Scatter path), both each-vs-bulk
# figures (the AddN and Scatter bulk paths) and the region dispatch rungs
# of internal/par (empty-region fork/join, worker start latency) run end
# to end without timing anything meaningful.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAblationAddDispatch' -benchtime 100x .
	$(GO) test -run '^$$' -bench 'BenchmarkBlockScatter' -benchtime 100x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkConvBackprop' -benchtime 100x ./internal/conv
	$(GO) run ./cmd/sprayall -figure 14,bulk-conv,bulk-graph -scale 0.001 -threads 2 -repeats 1 -min-time 1ms
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
# results/bulk/figures.json at a size that finishes in a few minutes.
# results/ is the canonical home of every benchmark JSON artifact.
bench-bulk:
	$(GO) run ./cmd/sprayall -figure bulk-conv,bulk-graph -scale 0.2 -threads 1,2,4,8 -outdir results/bulk

# bench-observability runs the bulk and schedule comparisons
# instrumented: every measured point carries its strategy counters in
# results/observability/figures.json, and a region report per point goes
# to stderr.
bench-observability:
	$(GO) run ./cmd/sprayall -figure bulk-conv,bulk-graph,sched -scale 0.02 -threads 1,2,4 -repeats 1 -min-time 20ms -metrics -outdir results/observability

# bench-gate is the benchmark regression gate. It first self-tests the
# detector on the checked-in fixture pair (a synthetic 50% regression
# must be caught), then records a quick each-vs-bulk conv sweep into the
# untracked results/gate/ and compares its figures.json against the
# tracked results/bench_baseline.json. A missing or host-mismatched
# baseline fails the target and prints the command that re-records it; a
# same-host regression beyond the noise band (4 sigma, at least 25% of
# the baseline mean) fails the target too. Each point is 5 samples of at
# least 50 ms, so an unchanged tree's run-to-run spread stays inside that
# band; re-record the baseline with this same sweep. The baseline holds
# t=1 and t=2 only, so the sweep names exactly those.
bench-gate:
	$(GO) run ./cmd/benchdiff -expect-regression -q cmd/benchdiff/testdata/base.json cmd/benchdiff/testdata/regressed.json
	$(GO) run ./cmd/sprayall -figure bulk-conv -scale 0.01 -threads 1,2 -repeats 5 -min-time 50ms -outdir results/gate
	$(GO) run ./cmd/benchdiff -sigma 4 -min-rel 0.25 results/bench_baseline.json results/gate/figures.json

# bench-imbalance records the loop-schedule comparison on the
# imbalanced workloads (front-loaded skew, skewed banded transpose
# product, mini-LULESH) plus the uniform conv control into the untracked
# results/sched_run/, then gates its figures.json against the tracked
# results/BENCH_sched.json. Because the run holds a schedule comparison,
# benchdiff also asserts the ranking claims on it: steal beats dynamic
# everywhere, stays within 20% of guided at every point and beats it in
# geomean across the imbalanced legs, and stays within 60% of static on
# the uniform control. It runs at t=2 only, one member per core of the
# 2-core host the baseline was recorded on (more members than cores
# would time-slice them and measure the OS scheduler). Each sample lasts
# at least 100 ms: at 30 ms the ranking claims failed 4 of 10 runs on an
# unchanged tree. The legs are short regions, so the regression band is
# the wide step-change band (-min-rel 0.75), and the uniform claim is
# wide (see scheduleClaims in cmd/benchdiff).
bench-imbalance:
	$(GO) run ./cmd/sprayall -figure sched -scale 0.01 -threads 2 -repeats 5 -min-time 100ms -outdir results/sched_run
	$(GO) run ./cmd/benchdiff -sigma 4 -min-rel 0.75 results/BENCH_sched.json results/sched_run/figures.json

# clean removes the transient benchmark artifacts (BENCH_*.json files
# beside the baselines are the outputs of older gate runs); the
# tracked results/BENCH_sched.json and results/bench_baseline.json
# baselines are left alone.
clean:
	rm -f BENCH_*.json results/BENCH_bulk.json results/BENCH_observability.json results/BENCH_gate.json results/BENCH_sched_run.json
	rm -rf results/bulk results/observability results/gate results/sched_run
	rm -f results/figures.json
	$(GO) clean ./...
