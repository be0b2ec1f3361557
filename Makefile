GO ?= go

.PHONY: build test vet lint race bench bench-json perf-test perf golden arena arena-smoke fuzz chaos soak soak-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the full static-analysis gate: stock go vet and gofmt -l
# (testdata fixtures excluded; any file it names fails), then the nine
# repo-specific analyzers (see the DESIGN.md §12 table) swept
# module-wide in one process — any finding fails, and the only way to
# accept one is a justified //cellqos:allow at the site — then
# staticcheck and govulncheck when installed (CI pins and installs
# both; locally they are optional extras).
lint: vet
	@unformatted=$$(gofmt -l . | grep -v '/testdata/'); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l names:"; echo "$$unformatted"; exit 1; fi
	$(GO) build -o bin/cellqos-vet ./cmd/cellqos-vet
	bin/cellqos-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping (CI runs it)"; fi

# race exercises the scenario runner's worker pool and the engine
# property test under the race detector; -short skips the long sweeps
# but keeps every concurrent path. internal/cellnet alone runs ~8.5
# minutes under the race detector on 2 vCPUs with its independent tests
# parallel (17 minutes serial), so the default 10 m per-package timeout
# leaves little headroom — raise it explicitly.
race:
	$(GO) test -race -short -timeout 20m ./...
	$(GO) test -race ./internal/runner/ ./internal/sim/shard/
	$(GO) test -race -run 'TestReportDeterministicAcrossWorkers|TestMetroShardedDeterministic|TestCanceledContextAborts' ./internal/experiments/
	$(GO) test -race -run 'TestPropertyEngineRandomOps|TestPropertyEq5Incremental|TestPropertyIncrementalBr' ./internal/core/
	$(GO) test -race -run 'TestAsyncShardCountInvariance|TestRecycledConnectionsCarryNoState|TestPartitionBoundaryRouting' ./internal/cellnet/

# bench runs each table/figure once at reduced scale, including the
# parallel-vs-serial runner comparison, across every package that
# defines benchmarks.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-json gates the Go benchmarks on the one ledger,
# BENCH_admission.json: the allocation profile (and, for the signaled
# decision, frames/op) of the admission fast path, the estimator's write
# path, the event kernel, the shard barrier and a steady cellnet ring
# run, at full benchtime. A count more than 10% over its pin, or a
# pinned row missing from the run, fails; a new benchmark is pinned at
# its first measurement. Time is measured by bench/ (`make perf`),
# never here. pipefail makes a package that fails to build or run fail
# the target.
bench-json: SHELL := bash
bench-json: .SHELLFLAGS := -o pipefail -c
bench-json:
	$(GO) test -bench 'BenchmarkAdmitNew|BenchmarkOutgoingReservation|BenchmarkColdCell|BenchmarkRecord|BenchmarkWriteTo|BenchmarkReadFrom|BenchmarkAdmitSignaled|BenchmarkChurn|BenchmarkCancel|BenchmarkBarrier|BenchmarkRingSteady' -benchmem -run '^$$' -count=1 ./internal/core/ ./internal/predict/ ./internal/signaling/ ./internal/sim/ ./internal/sim/shard/ ./internal/cellnet/ \
		| $(GO) run ./cmd/benchjson

# perf-test vets and tests the repository's benchmark (bench/, declared
# by BENCHMARK.json). bench/ is a module of its own, so `go build ./...`
# and `go test ./...` at the root never compile it: without this target
# a change to an API the benchmark calls would surface only when the
# benchmark is next run.
perf-test:
	cd bench && $(GO) vet . && $(GO) test .

# perf runs the whole benchmark once at seed 1: five workloads, untraced
# then traced, every metric by name; writes bench/out/result-seed1.json
# (see bench/README.md for multi-run and compare forms).
perf:
	bash bench/run.sh --seed 1

# golden checks the pinned reduced-scale corpus for all experiments;
# regenerate deliberately with `go test ./internal/golden/ -update`.
golden:
	$(GO) test ./internal/golden/

# arena regenerates the admission-policy arena report and checks it
# against the pinned results/arena/arena.txt; regenerate deliberately
# with `go test ./internal/arena/ -update`.
arena:
	$(GO) test -run 'TestArenaGolden' -count=1 ./internal/arena/

# arena-smoke is the CI-sized arena: the full contender roster on a
# reduced grid under the race detector, with the runtime invariant
# auditor attached (internal/arena.TestArenaSmoke).
arena-smoke:
	$(GO) test -race -count=1 -run 'TestArenaSmoke|TestArenaUnknownPolicy' -v ./internal/arena/

# fuzz gives every Fuzz* target in the module a short smoke run (the CI
# budget), enumerating them with `go test -list` exactly as CI's fuzz
# step does; run targets individually with a longer -fuzztime for real
# hunting.
fuzz:
	set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== fuzzing $$pkg $$target =="; \
			$(GO) test -fuzz="^$${target}\$$" -fuzztime=30s -run '^$$' $$pkg; \
		done; \
	done

# soak-smoke is the CI-sized service soak: one full pass up the
# internal/faults chaos ladder of crash-and-restart checkpoint cycles,
# under the race detector, with exact intake conservation plus
# goroutine-leak and heap-growth gates (internal/service/soak_test.go).
soak-smoke:
	$(GO) test -race -count=1 -run 'TestSoak' -v ./internal/service/

# soak keeps climbing the ladder until the wall budget is spent:
# `make soak` runs 60 s, `make soak CELLQOS_SOAK=10m` runs ten minutes.
CELLQOS_SOAK ?= 60s
soak:
	CELLQOS_SOAK=$(CELLQOS_SOAK) $(GO) test -race -count=1 -run 'TestSoak' -v -timeout 0 ./internal/service/

# chaos drives the distributed signaling plane through scripted
# partitions, crashes and lossy links under the race detector; -count=2
# also proves the suite leaves no state behind between runs.
chaos:
	$(GO) test -race -count=2 ./internal/chaos/ ./internal/signaling/ ./internal/faults/

# verify is the tier-1 gate: build + lint + race. Performance is tracked
# separately: `make bench-json` gates allocations against
# BENCH_admission.json, and `make perf` measures time.
verify: build lint race
