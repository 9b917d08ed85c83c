# Developer entry points. CI runs the same targets.

# bash with pipefail so piped recipes (bench's tee) fail when go test
# fails, not when the last pipe stage does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: build test race vet lint api apicheck bench ci

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# lint builds and runs focuslint, the project's custom analyzer suite
# (internal/lint): lockguard, determinism, sharedcapture and walorder
# mechanically enforce the locking, replay and durability invariants. The
# suite is stdlib-only, so this needs no tool downloads; see the
# internal/lint package documentation for the annotation grammar.
lint:
	go build -o /dev/null ./cmd/focuslint
	go run ./cmd/focuslint ./...

# api regenerates the checked-in public API surface baseline. Run it after
# an intentional API change and commit the diff; the apicheck CI job fails
# on any undeclared drift, so public-surface changes are always explicit in
# review.
api:
	go doc -all . > api/focus.txt

# apicheck diffs the live API surface against the baseline and rejects any
# Deprecated: symbol in it: a replaced API is deleted, not kept in parallel.
apicheck:
	go doc -all . | diff -u api/focus.txt - || (echo "public API drifted: run 'make api' and commit api/focus.txt" && exit 1)
	! grep -n 'Deprecated:' api/focus.txt || (echo "public API keeps deprecated symbols: delete them instead" && exit 1)

# bench runs every benchmark once with memory stats and distills the
# machine-readable trajectory BENCH_focus.json (package-qualified name ->
# ns/op, B/op, allocs/op). The CI bench-delta step uploads the file as an
# artifact, so each PR carries its benchmark snapshot; -require fails the
# run if any of the headline pairs ever drops out of the trajectory: the
# counting and mining backend pairs, the vertical-engine end-to-end wins
# (Fig7 curves, lits and dt bootstrap qualification), the ingestion-path
# pair, the incremental-vs-rebuild monitor pair, the reference-vs-engine
# tree construction pair and the durable restart (BenchmarkOpenRegistry).
# Serving latency through the router is perfbench's to measure
# (perfbench/run.sh). -order additionally pins the relationships those
# entries exist for: the incremental monitor path must not regress past a
# from-scratch rebuild, and the tree engine must not regress past the
# re-sorting reference builder. The monitor pair is re-measured at 20
# iterations (later lines win in benchjson) because a single iteration
# charges the incremental monitor's one-time window warm-up to its only
# op, inverting the steady-state relationship the trajectory exists to
# track.
#
# bench deliberately does not run focuslint (or any other static check):
# the analyzers run in `make ci` and the focuslint CI job, and keeping them
# out of bench keeps benchmark wall time a pure measurement of the code
# under test.
BENCH_REQUIRE := BenchmarkCountTrie,BenchmarkCountBitmap,BenchmarkMineTrie,BenchmarkMineVertical,BenchmarkFig7LitsSDvsSF,BenchmarkQualifyLits,BenchmarkQualifyDT,BenchmarkPump/source,BenchmarkPump/readcsv,BenchmarkLitsMonitorIncremental,BenchmarkLitsRebuildFromScratch,BenchmarkDTreeBuildNaive,BenchmarkDTreeBuildFast,BenchmarkOpenRegistry
BENCH_ORDER := "BenchmarkLitsMonitorIncremental<=BenchmarkLitsRebuildFromScratch,BenchmarkDTreeBuildFast<=BenchmarkDTreeBuildNaive"
bench:
	go test -run XXX -bench . -benchmem -benchtime 1x ./... | tee bench.out
	go test -run XXX -bench 'BenchmarkLitsMonitorIncremental|BenchmarkLitsRebuildFromScratch' -benchmem -benchtime 20x ./internal/stream/ | tee -a bench.out
	go run ./cmd/benchjson -require $(BENCH_REQUIRE) -order $(BENCH_ORDER) < bench.out > BENCH_focus.json
	@rm -f bench.out
	@echo "wrote BENCH_focus.json"

ci: build vet lint test apicheck
