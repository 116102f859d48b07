package promql

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestPoolPoisonEquivalence re-runs the golden corpus with pool poisoning
// enabled: every arena reset scribbles 0xDEADBEEF sentinels over recycled
// step vectors, matrices, and scratch slices before they are handed out
// again. Any operator that holds a reference across a batch boundary —
// instead of copying what it keeps — surfaces as poisoned labels or
// timestamps in the rendered matrix, not as a silent wrong answer.
func TestPoolPoisonEquivalence(t *testing.T) {
	poisonPools.Store(true)
	defer poisonPools.Store(false)

	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ref := newReference(db, DefaultEngineOptions())

	start := end.Add(-20 * time.Minute)
	for _, q := range rangeCorpus {
		m, err := eng.QueryRange(context.Background(), q, start, end, time.Minute)
		want, wantErr := ref.QueryRange(context.Background(), q, start, end, time.Minute)
		checkSame(t, "poisoned "+q, m, err, want, wantErr)
	}
}

// TestBatchSizeEquivalence pins that batch size is invisible in results:
// single-step batches, a tiny odd batch, and a single whole-range batch
// (BatchSize < 0) must all render byte-identically to the reference over
// the full corpus.
func TestBatchSizeEquivalence(t *testing.T) {
	db, end := testDB(t)
	ref := newReference(db, DefaultEngineOptions())
	start := end.Add(-20 * time.Minute)
	for _, bs := range []int{1, 3, -1} {
		opts := DefaultEngineOptions()
		opts.BatchSize = bs
		eng := NewEngine(db, opts)
		for _, q := range rangeCorpus {
			m, err := eng.QueryRange(context.Background(), q, start, end, time.Minute)
			want, wantErr := ref.QueryRange(context.Background(), q, start, end, time.Minute)
			checkSame(t, fmt.Sprintf("batch=%d %s", bs, q), m, err, want, wantErr)
		}
	}
}

// allocCeiling runs a warmed range query under testing.AllocsPerRun and
// fails if steady-state allocations exceed the ceiling. Ceilings are set
// ~1.5x above measured values — they catch regressions back toward
// per-step materialization (thousands of allocations), not noise.
func allocCeiling(t *testing.T, eng *Engine, query string, start, end time.Time, step time.Duration, ceiling float64) {
	t.Helper()
	expr, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm: first run pays parse-free one-time costs (selector fetch paths,
	// pool population) that steady-state dashboards never see again.
	for i := 0; i < 3; i++ {
		if _, err := eng.QueryRangeExpr(ctx, expr, start, end, step); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := eng.QueryRangeExpr(ctx, expr, start, end, step); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%q: %.0f allocs/op (ceiling %.0f)", query, got, ceiling)
	if got > ceiling {
		t.Errorf("%q: %.0f allocs/op exceeds ceiling %.0f", query, got, ceiling)
	}
}

// TestStreamingAllocCeilings pins steady-state allocations per range query
// for the core shapes: a raw selector and an aggregation over a rate.
// Pooled streaming
// execution keeps these flat in the number of steps; a regression to
// per-step allocation blows the ceilings by an order of magnitude.
func TestStreamingAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	base, end := testDB(t)
	start := end.Add(-20 * time.Minute)

	opts := DefaultEngineOptions()
	opts.ExecWorkers = 1 // partitioning adds per-part arenas; pin one for a stable count

	eng := NewEngine(base, opts)
	allocCeiling(t, eng, "smf_pdu_session_active", start, end, time.Minute, 100)
	allocCeiling(t, eng, "sum by (instance) (rate(amfcc_n1_auth_request[5m]))", start, end, time.Minute, 150)
}
