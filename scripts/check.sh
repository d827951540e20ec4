#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Run via `make check` or directly: ./scripts/check.sh
#
# Steps (fail-fast; the failing step is named on exit):
#   gofmt        gofmt -l . must print nothing — every Go file in the
#                tree, fixtures included, is in canonical format
#   vet          go vet ./... — the default analyzer suite
#   vet-focus    go vet -copylocks -loopclosure -atomic ./... — the three
#                analyzers whose findings have historically been
#                correctness bugs in simulators (locks copied into
#                goroutines, loop variables captured by reference,
#                torn counter updates)
#   lint         go run ./cmd/jobschedlint ./... — every repo-specific
#                analyzer (determinism, wallclock hygiene, telemetry
#                guards, checked arithmetic, sim purity; DESIGN.md §9)
#                and the protocol-aware contract analyzers
#                (streamcontract, journalsync, errflow; DESIGN.md §13);
#                each finding names its analyzer
#   lint-budget  scripts/lint-budget.sh — every //lint:ignore directive
#                must be ledgered with a justification, and each
#                analyzer's live suppression count must stay within its
#                budget line
#   build        go build ./... — every package compiles
#   test-race    go test -race ./... — full suite (incl. the differential
#                profile oracle and cross-worker determinism tests) under
#                the race detector
#   race-focus   go test -race -count=2 over the failure-injection path
#                (sim, eval, faults, serve): the packages where goroutines
#                meet shared state (parallel grids, journal, watchdog
#                timers, interrupt flags, the daemon's session workers)
#                get a second run to shake out order-dependent races the
#                single pass can miss
#   fuzz-smoke   fixed-budget runs of the fuzz targets: the SWF reader
#                (trace.FuzzReadSWF), the availability-profile
#                differential oracle (profile.FuzzProfileOps), the profile
#                kernel's block invariants under the same oracle
#                (profile.FuzzProfileTree), the fault-schedule
#                generator/simulator invariants
#                (faults.FuzzFailureSchedule), the daemon's snapshot
#                decoder, restore and streaming writer
#                (serve.FuzzReadSnapshot), the queue index's
#                mutations and queries against its naive model
#                (queue.FuzzIndexOps) and its ID → slot table against a
#                plain map (queue.FuzzIDTable). A short deterministic
#                budget — regressions on the seeded corpus and shallow
#                mutations fail here; deep exploration is for manual
#                `make fuzz` sessions
#   bench-shapes go test -bench Shape -benchtime 1x -short over
#                internal/profile — one op of each short shape-suite
#                benchmark (the fragmented t = 0 pass at 1k and 4k jobs,
#                the 10k staircase), so the suite that fixed the profile
#                kernel's block size keeps compiling and running
#   bench-root   go test -bench . -benchtime 1x over the root package —
#                one op of every bench in bench_test.go and
#                extensions_bench_test.go (the Tables 3-8, Figures 1-2
#                and ablation harness DESIGN §4-5 cite), so they keep
#                running
#   bench-smoke  go run ./benchmark -smoke — the repository's benchmark
#                at tiny sizes: all six workloads run end to end, and the
#                schedules they produce must match the committed
#                benchmark/expect.json (see benchmark/README.md)
#   examples-smoke scripts/examples-smoke.sh — the example programs
#                (chemistry, combined, metacomputing: the start-policy
#                wrappers and Switching; plus quickstart, capacity and
#                estimates) diffed against results/examples/*.txt
#   tables-smoke scripts/tables-smoke.sh — default-scale paper Tables
#                1-4 and 6 (evaluate -table N) diffed against their
#                sections of results/evaluate_default.txt, and the exact
#                work of Tables 3, 4 and 6 (evaluate -counters: profile
#                and queue operation counts per cell) diffed against
#                results/work_default.txt; Table 5 takes 19-28 s on
#                2 vCPU and stays out
#   stream-smoke scripts/stream-smoke.sh — a ~1M-job synthetic trace
#                simulated end-to-end under a GOMEMLIMIT heap ceiling
#                (the bounded-memory streaming path), plus a 2-shard
#                grid evaluation merged and compared byte-for-byte
#                against a single-process run
#   serve-smoke  scripts/serve-smoke.sh — boot the jobschedd daemon,
#                push 10k submissions through cmd/schedload, SIGTERM
#                drain (must exit 0), restart on the same data directory
#                and require a byte-identical recovered fingerprint
set -eu
cd "$(dirname "$0")/.."

step=startup
trap 'st=$?; if [ "$st" -ne 0 ]; then echo "FAIL: tier-1 step \"$step\" (exit $st)" >&2; fi' EXIT

run() {
	step=$1
	shift
	echo "==> $step: $*"
	"$@"
}

run gofmt sh -c 'out=$(gofmt -l .); [ -z "$out" ] || { echo "not gofmt-clean:"; echo "$out"; exit 1; } >&2'
run vet go vet ./...
run vet-focus go vet -copylocks -loopclosure -atomic ./...
run lint go run ./cmd/jobschedlint ./...
run lint-budget ./scripts/lint-budget.sh
run build go build ./...
run test-race go test -race ./...
run race-focus go test -race -count=2 ./internal/sim ./internal/eval ./internal/faults ./internal/serve
run fuzz-smoke go test -run='^$' -fuzz='^FuzzReadSWF$' -fuzztime=500x ./internal/trace
run fuzz-smoke go test -run='^$' -fuzz='^FuzzProfileOps$' -fuzztime=500x ./internal/profile
run fuzz-smoke go test -run='^$' -fuzz='^FuzzProfileTree$' -fuzztime=500x ./internal/profile
run fuzz-smoke go test -run='^$' -fuzz='^FuzzFailureSchedule$' -fuzztime=500x ./internal/faults
run fuzz-smoke go test -run='^$' -fuzz='^FuzzReadSnapshot$' -fuzztime=500x ./internal/serve
run fuzz-smoke go test -run='^$' -fuzz='^FuzzIndexOps$' -fuzztime=500x ./internal/queue
run fuzz-smoke go test -run='^$' -fuzz='^FuzzIDTable$' -fuzztime=500x ./internal/queue
run bench-shapes go test -run '^$' -bench Shape -benchtime 1x -short ./internal/profile
run bench-root go test -run '^$' -bench . -benchtime 1x .

step=bench-smoke
echo "==> bench-smoke: go run ./benchmark -smoke"
go run ./benchmark -smoke >/dev/null

run examples-smoke ./scripts/examples-smoke.sh
run tables-smoke ./scripts/tables-smoke.sh
run stream-smoke ./scripts/stream-smoke.sh
run serve-smoke ./scripts/serve-smoke.sh

echo "OK: all tier-1 checks passed"
