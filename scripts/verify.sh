#!/bin/sh
# verify.sh — the checks a change must pass before merging:
# static vetting plus the full test suite under the race detector.
set -eu
cd "$(dirname "$0")/.."

echo ">> go vet ./..."
go vet ./...

echo ">> go test -race ./..."
go test -race ./...

echo ">> go test ./... with DIO_TSDB_SHARDS=4 (distributed executor leg)"
DIO_TSDB_SHARDS=4 go test ./internal/promql/ ./internal/tsdb/ ./internal/ingest/

echo ">> tenant-aware suites with DIO_REPLICAS=4 (multi-tenant serving leg)"
DIO_REPLICAS=4 go test ./internal/servecache/ ./internal/httpapi/ ./internal/router/ ./internal/tenant/

# Opt-in: substrate micro-benchmarks with allocation reporting, plus the
# perf gates — the durable ingest path must sustain its remote-write floor
# while acknowledged samples survive a crash, and batched range execution
# must keep long-range memory bounded (VERIFY_BENCH=1 make verify).
if [ "${VERIFY_BENCH:-0}" = "1" ]; then
	echo ">> make bench (VERIFY_BENCH=1)"
	make bench
	echo ">> dio-bench ingest gate (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment ingest -short
	echo ">> dio-bench shard scaling curve (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment shard -short
	echo ">> dio-bench batch gate (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment batch -short
	echo ">> dio-bench multitenant gate (VERIFY_BENCH=1)"
	go run ./cmd/dio-bench -experiment multitenant -short
	echo ">> crash-recovery smoke (VERIFY_BENCH=1)"
	./scripts/crash_smoke.sh
	echo ">> crash-recovery smoke, 4-shard store (VERIFY_BENCH=1)"
	CRASH_SMOKE_SHARDS=4 CRASH_SMOKE_PORT=18081 ./scripts/crash_smoke.sh
fi

echo "verify: OK"
