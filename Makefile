.PHONY: build test bench bench-compare microbench vet fmt-check lint fuzz cover e2e chaos

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# Short native-fuzzing smoke over the cell-key round-trip property and
# the snapshot codec (mutated checkpoint bytes must decode with
# matching CRCs or fail with a typed error — never panic or over-
# allocate); a counterexample fails the run and is minimized into
# testdata/fuzz as a permanent regression case.
fuzz:
	go test -run '^$$' -fuzz FuzzEncodeDecodeCell -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime 10s ./internal/snapshot
	go test -run '^$$' -fuzz FuzzScoreStateRoundTrip -fuzztime 10s ./internal/stream

# lint = vet + gofmt (any file gofmt would rewrite fails) + the repo's
# godoc discipline (every exported symbol in internal/ and cmd/ must
# carry a doc comment, see cmd/doccheck) + the inlining guard on the
# ingest hot paths (scripts/inline_check.sh) + the fuzz smoke run.
lint: vet fmt-check fuzz
	go run ./cmd/doccheck ./internal ./cmd
	./scripts/inline_check.sh

fmt-check:
	@out=$$(gofmt -l $$(go list -f '{{.Dir}}' ./...)); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files needing formatting:"; echo "$$out"; exit 1; fi

# Coverage gate: fails when internal/... test coverage drops below the
# checked-in threshold (scripts/coverage_threshold.txt).
cover:
	./scripts/coverage.sh

# spotd crash-recovery e2e: builds the daemon binary, streams into it,
# SIGKILLs it mid-stream, restarts over the same data directory and
# replays — recovered verdicts must match the uninterrupted oracle bit
# for bit; the SIGTERM variant must drain, checkpoint every
# acknowledged point and exit 0.
e2e:
	go test -count=1 -run 'TestE2E' -v ./cmd/spotd

# Replication chaos drill, under the race detector: a primary+standby
# spotd pair streams a labeled workload while the harness SIGKILLs
# processes (promote + restart per the failover runbook), severs the
# replication link through a proxy, and corrupts every Nth shipped
# snapshot on the wire. Every verdict must match an uninterrupted
# oracle at the tick the server reports, every call must return a
# verdict or typed error (never hang), and no standby may accept a
# generation that regresses one it holds. CHAOS_ROUNDS overrides the
# default 20 randomized rounds.
chaos:
	go test -race -count=1 -run 'TestChaosFailover' -v ./cmd/spotd

bench:
	./scripts/bench.sh

# Regression gate on the tracked perf baseline: run the benchmark grid
# into a scratch artifact and diff it against the checked-in
# BENCH_core.json — exits non-zero when any shared scenario loses more
# than 10% points/sec (cmd/benchdiff; threshold and warn-only mode are
# flags there). Override BENCHDUR for a quicker, noisier run.
BENCHDUR ?= 2s
bench-compare:
	go run ./cmd/spotbench -out /tmp/BENCH_new.json -duration $(BENCHDUR)
	go run ./cmd/benchdiff BENCH_core.json /tmp/BENCH_new.json

# Hot-path microbenchmarks: the open-addressed cell table vs its
# map-backed oracle (internal/core) and the detector's point/batch
# ingestion paths (internal/stream), with allocation reporting. The
# -run filter also executes the zero-allocs gates, so a steady-state
# allocation on the hot path fails the target. Override BENCHTIME
# (e.g. BENCHTIME=1x) for a smoke run in CI.
BENCHTIME ?= 1s
microbench:
	go test -run 'ZeroAllocs' -bench 'PCSTable|ProcessPoint|ProcessBatch' -benchmem -benchtime $(BENCHTIME) ./internal/core ./internal/stream
