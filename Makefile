# Developer entry points. The tier-1 gate is `make verify`; `make race`
# additionally runs the race detector over the whole module (the parallel
# operator, spreadsheet PE and block-store paths are all goroutine-heavy).

GO ?= go

.PHONY: build test verify vet race race-vector serve-test recover-test fuzz-smoke bench lint-hotpath lint-onepath

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification: everything must build, every test must pass (including
# the serving-layer suite), every fuzz target must survive a few seconds of
# mutation, no per-row boxing or per-cell allocation may sneak into the
# kernel files unannotated, the root package must publish, log, plan and
# execute in one place each, and the vectorized-path packages must be
# race-clean (the columnar image cache and selection-pool are shared across
# worker goroutines; race-vector is targeted so verify stays fast —
# full-module `make race` remains the pre-merge gate for goroutine-heavy
# changes).
verify: build test serve-test recover-test fuzz-smoke lint-hotpath lint-onepath race-vector

# Serving-layer gate: wire codec round-trips, fuzz seed corpus, and the
# in-process sqlsheetd integration suite (32 concurrent sessions vs serial
# replay, timeout cancellation, admission overload, graceful drain, /metrics).
# Also part of `make race` via ./... .
serve-test:
	$(GO) test ./internal/wire/ ./internal/server/

# Crash-recovery gate, run under the race detector: SIGKILL a WAL-backed
# server (fsync-always) mid-INSERT-burst, restart it over the same log
# directory, and require a clean prefix covering every acknowledged
# statement, byte-identical to a serial replay. The WAL unit suite (framing,
# rotation, checkpoint truncation, torn-tail recovery, FuzzWALReplay seed
# corpus) and the root-package recovery round-trips ride along, with the write
# path's own contract: a failed statement leaves no trace in memory or in the
# log, recovery is strict, a failed append poisons the log, LoadCSV parses
# outside the lock. Part of `make verify`.
recover-test:
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'TestRecover' ./internal/server/
	$(GO) test -race -run 'TestWAL|TestLoadCSV' .

# Fuzz gate: each of the eight fuzz targets (SQL text, statement round-trip,
# the streaming text fingerprint against its definition over lex() tokens,
# whole queries, rule kernels, expression kernels, wire bytes against a live
# server, WAL bytes) runs for 3 s beyond its seed corpus. `go test
# -fuzz` takes one target in one package per invocation, hence the list.
# A finding is written under the package's testdata/fuzz/ and fails the gate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 3s ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 3s ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime 3s ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzExprKernel$$' -fuzztime 3s ./internal/eval/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 3s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzWireProtocol$$' -fuzztime 3s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime 3s .
	$(GO) test -run '^$$' -fuzz '^FuzzRuleKernel$$' -fuzztime 3s .

# lint-hotpath flags per-row types.Value boxing (Column.Value / types.New*)
# inside the vectorized kernel files and the image derivation
# (internal/colstore/derive.go: extend/patch/gather run once per written row
# of every version) — these loops must stay on the typed vectors. A deliberate exception needs an `interp-ok:` comment on the same
# line justifying it (boxed-column fallback, once-per-group work, ...).
# The same goes for allocation in the access structure's per-cell files: a
# row `.Clone()` or a `make(map` in frame/acyclic/vecrules/vecscan.go needs an
# `alloc-ok: <reason>` comment saying why it is not per cell (measure writes
# copy a shared row once and then write in place — see DESIGN.md §16).
lint-hotpath:
	@bad=$$(grep -n '\.Value(\|types\.New[A-Z]' internal/eval/vector.go internal/eval/exprvec.go \
		internal/eval/aggbatch.go internal/exec/vector.go internal/exec/vecagg.go \
		internal/exec/vecproject.go internal/core/vecscan.go internal/core/vecrules.go \
		internal/colstore/derive.go \
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

# lint-onepath keeps the write path and the read path one path each.
# Publishing table images and appending to the log must only ever happen
# inside the write function (mutateLocked in write.go: apply → append →
# publish); building a plan and executing it only inside the read function
# (read in db.go: lookup → result → claim → plan → execute → store). So the
# root package's non-test files may call Catalog.PublishAll, the log's
# Append, plan.Build and Executor.Execute once each. A second call site is a
# second path: route the new mutation through DB.mutate, the new SELECT
# through DB.read. (checkpointLocked writes through Log.Checkpoint's callback
# and is unaffected; DML executes through Executor.ExecStatement inside a
# mutation.)
lint-onepath:
	@for call in 'PublishAll(' '\.Append(' 'plan\.Build(' '\.Execute('; do \
		hits=$$(grep -n "$$call" $$(ls *.go | grep -v '_test\.go$$') | grep -v ':[0-9]*:[[:space:]]*//'); \
		if [ "$$(printf '%s\n' "$$hits" | grep -c .)" -ne 1 ]; then \
			echo "lint-onepath: want exactly one call of $$call in the root package, found:"; \
			echo "$$hits"; \
			exit 1; \
		fi; \
	done; \
	echo "lint-onepath: ok"

vet:
	$(GO) vet ./...

# Race-detector gate for the concurrent paths (operator worker pools,
# spreadsheet PEs, parallel partition build, chunked external sort, async
# spill writer/prefetcher). The suite exercises the data-movement paths —
# serial and parallel build and sort, async and sync spill — with Workers 1
# and >1 (TestConcurrentDataMovement, the differential harness's move and
# spill3 configurations, TestStatsConcurrentWithIO). Slower than `make
# test`; run before merging changes that touch goroutines or shared state.
race: vet
	$(GO) test -race ./...

# Targeted race pass over the vectorized cold path: the columnar packages,
# the image versions that share vectors with their predecessors (mvcc and
# catalog: the aliasing discipline of derived images lives there), the kernel
# compiler, the executor/core consumers, and the root differential harness
# under its configurations with more than one worker or PE, each beside its
# serial reference: the kernels run morsel-parallel against the shared image
# cache and selection pool, UPDATE/DELETE find rows by kernel over derived
# images, rules run as one batch per bucket on 4 PEs, each PE owning its
# buckets' image caches, spill writes asynchronously, and the served
# configuration answers over the wire. The root run fails if its pattern
# selects no harness configuration. Part of `make verify`.
RACE_CONFIGS = row-w8|vec-w8|rules-off-w8|b1-w4|b3-w4|b16-w4|b3-spill-w4|b7-par3|b7-spill-async|served
race-vector:
	$(GO) test -race ./internal/colstore/ ./internal/mvcc/ ./internal/catalog/ ./internal/blockstore/ ./internal/eval/ ./internal/exec/ ./internal/core/
	@out=$$($(GO) test -race -v -run '^(TestDifferential|TestExplainVectorized.*)$$//^($(RACE_CONFIGS))$$' . 2>&1); status=$$?; \
	echo "$$out" | grep -v -e '^=== ' -e '^ *--- PASS' -e '^PASS$$'; \
	if echo "$$out" | grep -q 'no tests to run' || ! echo "$$out" | grep -q -- '--- PASS: TestDifferential/.*/'; then \
		echo "race-vector: the -run pattern selects no harness configuration"; exit 1; \
	fi; \
	exit $$status

# The benchmark: bench/run.sh builds the server from this checkout and drives
# the four BENCHMARK.json workloads (dash_warm, sheet_cold, scan_cold,
# ingest_mixed) end to end over loopback; see bench/README.md. The Benchmark*
# functions in the _test.go files (spill, external sort, WAL, kernels,
# the paper's figures) remain runnable with plain `go test -bench`; no
# baseline of theirs is checked in.
bench:
	bash bench/run.sh
