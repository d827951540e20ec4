GO ?= go

.PHONY: check build test fmt-check vet lint fuzz-smoke race bench-smoke examples-smoke tables-smoke stream-smoke serve-smoke

# Tier-1 gate: gofmt + vet + lint + lint-budget + build + race-enabled
# tests + fuzz smoke + bench smoke + examples smoke + tables smoke (see
# scripts/check.sh for the step list).
check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails, listing the files, if any Go file is not in gofmt's format.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint, DESIGN.md §9 and §13):
# the full analyzer suite — including the protocol-aware contract
# analyzers (streamcontract, journalsync, errflow) — then
# the suppression-budget audit with its per-analyzer ceilings.
lint:
	$(GO) run ./cmd/jobschedlint ./...
	./scripts/lint-budget.sh

# Fixed-budget fuzz runs of the SWF reader, the availability-profile
# differential oracle, the profile kernel's block invariants, the
# fault-schedule invariants, the daemon's snapshot decoder + restore, its
# snapshot-job and WAL-record appenders against json.Marshal, the queue
# index against its naive model and its ID → slot table against a plain
# map — the same budgets the tier-1 gate uses.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadSWF$$' -fuzztime=500x ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzProfileOps$$' -fuzztime=500x ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzProfileTree$$' -fuzztime=500x ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzFailureSchedule$$' -fuzztime=500x ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzReadSnapshot$$' -fuzztime=500x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotEncoding$$' -fuzztime=500x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzIndexOps$$' -fuzztime=500x ./internal/queue
	$(GO) test -run='^$$' -fuzz='^FuzzIDTable$$' -fuzztime=500x ./internal/queue

race:
	$(GO) test -race ./...

# The repository's benchmark at tiny sizes: all six workloads end to
# end, schedules checked against benchmark/expect.json. The full run is
# `go run ./benchmark`; `go run ./benchmark -compare A.json B.json`
# compares two of its -out reports (see benchmark/README.md).
bench-smoke:
	$(GO) run ./benchmark -smoke

# The example programs (start-policy wrappers, Switching, quickstart,
# capacity, estimates) diffed against the goldens in results/examples/.
examples-smoke:
	./scripts/examples-smoke.sh

# Default-scale paper Tables 1-4 and 6 diffed against
# results/evaluate_default.txt, and the exact-work ledger of Tables 3, 4
# and 6 (evaluate -counters) against results/work_default.txt (Table 5
# takes 19-28 s on 2 vCPU and stays out).
tables-smoke:
	./scripts/tables-smoke.sh

# Million-job streaming run under a GOMEMLIMIT ceiling + 2-shard merge
# cross-check against single-process output (see DESIGN.md §12).
stream-smoke:
	./scripts/stream-smoke.sh

# Boot the jobschedd daemon, drive 10k submissions through schedload
# into an FCFS and a SMART session, SIGTERM drain, restart, assert
# byte-identical recovered fingerprints (see DESIGN.md §15).
serve-smoke:
	./scripts/serve-smoke.sh
