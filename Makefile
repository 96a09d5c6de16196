# Developer entry points. The tier-1 gate is `make verify`; `make race`
# additionally runs the race detector over the whole module (the parallel
# operator, spreadsheet PE and block-store paths are all goroutine-heavy).

GO ?= go

.PHONY: build test verify vet race race-vector serve-test cluster-test recover-test fuzz-smoke bench-parallel bench bench-compare bench-cache bench-serve bench-vector bench-rules bench-shard bench-wal lint-hotpath

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification: everything must build, every test must pass (including
# the serving-layer suite), every fuzz target must survive a few seconds of
# mutation, no per-row boxing or per-cell allocation may sneak into the
# kernel files unannotated, and the vectorized-path packages must be
# race-clean (the columnar image cache and selection-pool are shared across
# worker goroutines; race-vector is targeted so verify stays fast —
# full-module `make race` remains the pre-merge gate for goroutine-heavy
# changes).
verify: build test serve-test cluster-test recover-test fuzz-smoke lint-hotpath race-vector

# Serving-layer gate: wire codec round-trips, fuzz seed corpus, and the
# in-process sqlsheetd integration suite (32 concurrent sessions vs serial
# replay, timeout cancellation, admission overload, graceful drain, /metrics).
# Also part of `make race` via ./... .
serve-test:
	$(GO) test ./internal/wire/ ./internal/server/

# Cluster gate, run under the race detector (the scatter path is
# goroutine-heavy: per-worker scatter goroutines, the cancel-broadcast
# watcher, pipelined connections). Boots 2-4 in-process worker servers plus
# a coordinator and replays the byte-identity grid (shard counts 1/2/4 ×
# operator workers 1/4, pre- and post-DML), cancel-mid-scatter, worker
# restart/reconnect, and concurrent distributed sessions. Part of
# `make verify`.
cluster-test:
	$(GO) test -race ./internal/shard/
	$(GO) test -race -run 'TestCluster' ./internal/server/

# Crash-recovery gate, run under the race detector: SIGKILL a WAL-backed
# server (fsync-always) mid-INSERT-burst, restart it over the same log
# directory, and require a clean prefix covering every acknowledged
# statement, byte-identical to a serial replay. The WAL unit suite (framing,
# rotation, checkpoint truncation, torn-tail recovery, FuzzWALReplay seed
# corpus) and the root-package recovery round-trips ride along. Part of
# `make verify`.
recover-test:
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'TestRecover' ./internal/server/
	$(GO) test -race -run 'TestWAL' .

# Fuzz gate: each of the seven fuzz targets (SQL text, statement round-trip,
# whole queries, rule kernels, expression kernels, wire bytes against a live
# server, WAL bytes) runs for 3 s beyond its seed corpus. `go test
# -fuzz` takes one target in one package per invocation, hence the list.
# A finding is written under the package's testdata/fuzz/ and fails the gate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 3s ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 3s ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzExprKernel$$' -fuzztime 3s ./internal/eval/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 3s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzWireProtocol$$' -fuzztime 3s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime 3s .
	$(GO) test -run '^$$' -fuzz '^FuzzRuleKernel$$' -fuzztime 3s .

# lint-hotpath flags per-row types.Value boxing (Column.Value / types.New*)
# inside the vectorized kernel files — kernel loops must stay on the typed
# vectors. A deliberate exception needs an `interp-ok:` comment on the same
# line justifying it (boxed-column fallback, once-per-group work, ...).
# The same goes for allocation in the access structure's per-cell files: a
# row `.Clone()` or a `make(map` in frame/acyclic/vecrules/vecscan.go needs an
# `alloc-ok: <reason>` comment saying why it is not per cell (measure writes
# copy a shared row once and then write in place — see DESIGN.md §16).
lint-hotpath:
	@bad=$$(grep -n '\.Value(\|types\.New[A-Z]' internal/eval/vector.go internal/eval/exprvec.go \
		internal/eval/aggbatch.go internal/exec/vector.go internal/exec/vecagg.go \
		internal/exec/vecproject.go internal/core/vecscan.go internal/core/vecrules.go \
		| grep -v 'interp-ok:'); \
	if [ -n "$$bad" ]; then \
		echo "lint-hotpath: unannotated per-row boxing in vectorized kernels:"; \
		echo "$$bad"; \
		echo "stay on the typed vectors or add an 'interp-ok: <reason>' comment"; \
		exit 1; \
	fi; \
	bad=$$(grep -n '\.Clone()\|make(map' internal/core/frame.go internal/core/acyclic.go \
		internal/core/vecrules.go internal/core/vecscan.go \
		| grep -v 'alloc-ok:'); \
	if [ -n "$$bad" ]; then \
		echo "lint-hotpath: unannotated row clone or map allocation on the access structure's per-cell paths:"; \
		echo "$$bad"; \
		echo "write through Frame.write / reuse PE scratch, or add an 'alloc-ok: <reason>' comment"; \
		exit 1; \
	fi; \
	echo "lint-hotpath: ok"

vet:
	$(GO) vet ./...

# Race-detector gate for the concurrent paths (operator worker pools,
# spreadsheet PEs, parallel partition build, chunked external sort, async
# spill writer/prefetcher). The suite exercises the data-movement paths —
# serial and parallel build and sort, async and sync spill — with Workers 1
# and >1 (TestConcurrentDataMovement, TestDataMovementConfigsPreserveResults,
# TestStatsConcurrentWithIO). Slower than `make test`; run before merging
# changes that touch goroutines or shared state.
race: vet
	$(GO) test -race ./...

# Targeted race pass over the vectorized cold path: the columnar packages,
# the kernel compiler, the executor/core consumers, and the root ablation
# property tests (TestVectorized* runs the kernels morsel-parallel against
# the shared image cache and selection pool). Part of `make verify`.
race-vector:
	$(GO) test -race ./internal/colstore/ ./internal/blockstore/ ./internal/eval/ ./internal/exec/ ./internal/core/
	$(GO) test -race -run 'TestVectorized|TestExplainVectorized|TestParallelOperatorsEqualSerial' .

# Morsel-driven operator benchmarks swept across core counts; compare ns/op
# at -cpu 1 vs 4 (see BENCH_parallel.json for a recorded baseline).
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel(Join|GroupBy)' -cpu 1,2,4 -benchmem .

# Expression-evaluation benchmarks: an expression-heavy filter and a
# spreadsheet cell-probe microbenchmark, swept across core counts. The
# serving-path cache tiers ride along (cold / plan-only / warm; see
# BENCH_cache.json).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCompiled(Filter|SpreadsheetProbe)|BenchmarkRepeatedQuery' -cpu 1,2,4 -benchmem .

# Serving-path cache benchmark: one repeated spreadsheet statement at each
# cache tier — cold (DisablePlanCache), warm-plan-only (DisableResultCache:
# cached plan + version-checked structure reuse) and warm (result hit).
# cmd/benchjson diffs against the checked-in BENCH_cache.json and rewrites it.
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkRepeatedQuery' -benchmem . | \
	$(GO) run ./cmd/benchjson -diff BENCH_cache.json -out BENCH_cache.json \
		-command "make bench-cache" \
		-note "serving-path cache tiers: cold vs plan/structure reuse vs result hit"

# Data-movement benchmarks (parallel partition build, external merge sort,
# spill-store throughput) swept across core counts. cmd/benchjson diffs the
# run against the checked-in BENCH_storage.json baseline and rewrites it; drop
# the rewrite by deleting `-out` if you only want the comparison. -fail-over
# exits nonzero (before rewriting the baseline) when any benchmark regresses
# by more than 50% — wide enough to ride out container timing noise, tight
# enough to catch a vectorized path silently falling back to the row engine.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelBuild$$|BenchmarkExternalSort|BenchmarkSpillThroughput' \
		-cpu 1,4 -benchmem ./... | \
	$(GO) run ./cmd/benchjson -diff BENCH_storage.json -out BENCH_storage.json -fail-over 50 \
		-command "make bench-compare" \
		-note "data-movement baselines: partition build, external merge sort, spill throughput"

# Vectorized cold-path benchmark: columnar selection and compute kernels,
# batch aggregation and key encoders against the row-at-a-time compiled
# closures, ablated with Config.DisableVectorizedExec (results are
# byte-identical either way — see TestVectorized* in vector_test.go).
# cmd/benchjson diffs against the checked-in BENCH_vector.json baseline and
# rewrites it.
bench-vector:
	$(GO) test -run '^$$' -bench 'BenchmarkColdScanFilter|BenchmarkColdGroupBy|BenchmarkColdProjection|BenchmarkColdAgg|BenchmarkColdJoinGroupBy' -benchmem . | \
	$(GO) run ./cmd/benchjson -diff BENCH_vector.json -out BENCH_vector.json -merge \
		-command "make bench-vector" \
		-note "cold-path vectorization: columnar kernels vs row-at-a-time closures (DisableVectorizedExec ablation)"

# Batch rule engine benchmark: spreadsheet rule application (evalFrame over
# a prebuilt 100k-cell partition set) under the vectorized kernels vs the
# per-cell interpreter, ablated with DisableVectorizedRules (byte-identical
# results either way — see TestVectorizedRulesMatchRowPath). Shares the
# BENCH_vector.json baseline with bench-vector; -fail-over guards against a
# rule silently falling off the batch path.
bench-rules:
	$(GO) test -run '^$$' -bench 'BenchmarkSpreadsheetRules' -benchmem ./internal/core/ | \
	$(GO) run ./cmd/benchjson -diff BENCH_vector.json -out BENCH_vector.json -fail-over 50 -merge \
		-command "make bench-rules" \
		-note "batch rule application: existential and FOR-loop rules, vectorized vs per-cell (DisableVectorizedRules ablation)"

# Sharded-execution benchmark: one spreadsheet statement (32 partitions,
# per-cell prefix aggregates) executed single-process vs scattered to 1 and
# 2 worker servers (serial workers, serial coordinator — the topology is
# the only variable). cmd/benchjson diffs against the checked-in
# BENCH_shard.json baseline and rewrites it; -fail-over guards against the
# distribution path silently falling back to local execution. Note the
# workers=2 vs workers=1 ratio only shows inter-process scaling on hosts
# with ≥2 CPUs; single-core hosts time-slice the workers and pin it at ~1×.
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardedSpreadsheet' -benchmem ./internal/server/ | \
	$(GO) run ./cmd/benchjson -diff BENCH_shard.json -out BENCH_shard.json -fail-over 50 -merge \
		-command "make bench-shard" \
		-note "sharded spreadsheet execution: local vs 1-worker vs 2-worker scatter-gather"

# WAL durability benchmarks: single-statement DML throughput under fsync
# none/group/always plus the no-WAL baseline, the 8-way concurrent group-
# commit case (coalesced/op reports fsyncs saved per statement), and reader
# latency during a sustained write burst (readers pin MVCC images and take no
# lock). cmd/benchjson diffs against the checked-in BENCH_wal.json baseline
# and rewrites it.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend$$|BenchmarkWALAppendConcurrent|BenchmarkReaderDuringDML' -benchmem . | \
	$(GO) run ./cmd/benchjson -diff BENCH_wal.json -out BENCH_wal.json -merge \
		-command "make bench-wal" \
		-note "WAL durability: fsync mode throughput, group-commit coalescing, concurrent-reader latency under write burst"

# Serving-layer throughput: end-to-end client round-trips at 1, 8 and 64
# concurrent sessions, serving-path cache cold vs warm. cmd/benchjson diffs
# against the checked-in BENCH_serve.json baseline and rewrites it.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem ./internal/server/ | \
	$(GO) run ./cmd/benchjson -diff BENCH_serve.json -out BENCH_serve.json \
		-command "make bench-serve" \
		-note "serving layer: 1/8/64 concurrent client sessions, cold vs warm serving-path cache"
