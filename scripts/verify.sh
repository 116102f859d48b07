#!/bin/sh
# verify.sh — the checks a change must pass before merging:
# static vetting plus the full test suite under the race detector.
set -eu
cd "$(dirname "$0")/.."

echo ">> go vet ./..."
go vet ./...

echo ">> go test -race ./..."
go test -race ./...

# Opt-in: substrate micro-benchmarks with allocation reporting, plus the
# perf gates — the durable ingest path must sustain its remote-write floor
# while acknowledged samples survive a crash, and batched range execution
# must keep long-range memory bounded (VERIFY_BENCH=1 make verify).
if [ "${VERIFY_BENCH:-0}" = "1" ]; then
	echo ">> make bench (VERIFY_BENCH=1)"
	make bench
	echo ">> dio-bench ingest gate (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment ingest -short
	echo ">> dio-bench batch gate (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment batch -short
	echo ">> dio-bench multitenant gate (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment multitenant -short
	echo ">> crash-recovery smoke (VERIFY_BENCH=1)"
	./scripts/crash_smoke.sh
fi

echo "verify: OK"
