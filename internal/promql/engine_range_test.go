package promql

import (
	"context"
	"testing"
	"time"
)

// rangeCorpus exercises every evaluation shape that touches storage:
// plain/filtered/offset selectors, range functions, aggregations, binary
// and set operators, subqueries (non-monotone inner timelines), histogram
// quantiles, and matchers the postings index cannot answer.
var rangeCorpus = []string{
	"amfcc_n1_auth_request",
	`amfcc_n1_auth_request{instance="a"}`,
	`amfcc_n1_auth_request{instance=~"a|b"}`,
	`amfcc_n1_auth_request{instance!="a"}`,
	`smf_pdu_session_active{nf=""}`, // label-absent matcher: must bypass the index
	`amfcc_n1_auth_request offset 5m`,
	"rate(amfcc_n1_auth_request[5m])",
	"increase(amfcc_n1_auth_request[10m])",
	"sum(rate(amfcc_n1_auth_request[5m]))",
	"sum by (instance) (rate(amfcc_n1_auth_request[5m]))",
	"avg by (instance) (smf_pdu_session_active)",
	"max_over_time(smf_pdu_session_active[10m])",
	"topk(1, smf_pdu_session_active)",
	"smf_pdu_session_active / 100",
	"smf_pdu_session_active > 150",
	`rate(amfcc_n1_auth_request[5m]) + on(instance) group_left smf_pdu_session_active`,
	"amfcc_n1_auth_request and smf_pdu_session_active",
	"smf_pdu_session_active or vector(1)",
	"avg_over_time(sum(smf_pdu_session_active)[10m:1m])",
	"max_over_time(rate(amfcc_n1_auth_request[5m])[15m:2m])",
	"histogram_quantile(0.9, http_request_duration_seconds_bucket)",
	"absent(nonexistent_metric)",
	"nonexistent_metric",
	"count(amfcc_n1_auth_request) by (nf)",
	"scalar(sum(smf_pdu_session_active)) * 2",
}

// rangeWindow is one window shape the golden corpus runs over.
type rangeWindow struct {
	name       string
	start, end time.Time
	step       time.Duration
}

// rangeWindows are the corpus windows ending at end: steps before data
// begins and steps past its end (lookback/staleness) included.
func rangeWindows(end time.Time) []rangeWindow {
	return []rangeWindow{
		{"mid", end.Add(-20 * time.Minute), end, time.Minute},
		{"pre-data", end.Add(-40 * time.Minute), end.Add(-25 * time.Minute), 30 * time.Second},
		{"past-end", end.Add(-5 * time.Minute), end.Add(10 * time.Minute), 2 * time.Minute},
		{"single-step", end, end, time.Minute},
	}
}

// TestQueryRangeEquivalence: the engine must produce byte-identical
// matrices (or identical errors) to the reference evaluator for every
// corpus query over every window shape.
func TestQueryRangeEquivalence(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ref := newReference(db, DefaultEngineOptions())
	ctx := context.Background()
	for _, w := range rangeWindows(end) {
		for _, q := range rangeCorpus {
			m, err := eng.QueryRange(ctx, q, w.start, w.end, w.step)
			want, wantErr := ref.QueryRange(ctx, q, w.start, w.end, w.step)
			checkSame(t, w.name+" "+q, m, err, want, wantErr)
		}
	}
}

// TestQueryRangeEquivalenceSingleWorker pins that parallelism is invisible
// in results: an 8-worker engine (step partitions, branch parallelism)
// and a single-worker engine both match the reference.
func TestQueryRangeEquivalenceSingleWorker(t *testing.T) {
	db, end := testDB(t)
	par := DefaultEngineOptions()
	par.ExecWorkers = 8
	seq := par
	seq.ExecWorkers = 1
	engines := map[string]*Engine{"workers=8": NewEngine(db, par), "workers=1": NewEngine(db, seq)}
	ref := newReference(db, par)

	start := end.Add(-25 * time.Minute)
	ctx := context.Background()
	for _, q := range rangeCorpus {
		want, wantErr := ref.QueryRange(ctx, q, start, end, 5*time.Second)
		for name, eng := range engines {
			m, err := eng.QueryRange(ctx, q, start, end, 5*time.Second)
			checkSame(t, name+" "+q, m, err, want, wantErr)
		}
	}
}

// TestQueryRangeStats: the select-once cache must fetch each selector from
// storage exactly once per range query and serve every later step from the
// cache, with cursor resets only on non-monotone (subquery) timelines.
func TestQueryRangeStats(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	var stats RangeStats
	var calls int
	eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { stats = s; calls++ }})

	start := end.Add(-10 * time.Minute)
	if _, err := eng.QueryRange(context.Background(), "rate(amfcc_n1_auth_request[5m])", start, end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnRangeEval fired %d times, want 1", calls)
	}
	// 11 steps, one selector node: 1 storage fetch, 10 cache hits.
	if stats.SelectorMisses != 1 {
		t.Errorf("SelectorMisses = %d, want 1", stats.SelectorMisses)
	}
	if stats.SelectorHits != 10 {
		t.Errorf("SelectorHits = %d, want 10", stats.SelectorHits)
	}
	if stats.CursorResets != 0 {
		t.Errorf("CursorResets = %d, want 0 for a monotone range", stats.CursorResets)
	}

	// Subqueries rewind the inner timeline at each outer step; the cache
	// must absorb that as counted re-seeks, never as a second fetch.
	if _, err := eng.QueryRange(context.Background(), "avg_over_time(sum(smf_pdu_session_active)[10m:1m])", start, end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if stats.SelectorMisses != 1 {
		t.Errorf("subquery SelectorMisses = %d, want 1", stats.SelectorMisses)
	}
	if stats.CursorResets == 0 {
		t.Error("subquery range produced no cursor resets; expected re-seeks on inner-timeline rewinds")
	}
}

// TestQueryRangeMaxSamplesPerStep: the sample budget is per step, and
// the engine trips it exactly where the reference does.
func TestQueryRangeMaxSamplesPerStep(t *testing.T) {
	db, end := testDB(t)
	opts := DefaultEngineOptions()
	opts.MaxSamples = 3 // each step touches 4 series
	const q = "amfcc_n1_auth_request + smf_pdu_session_active"
	m, err := NewEngine(db, opts).QueryRange(context.Background(), q, end.Add(-5*time.Minute), end, time.Minute)
	if err == nil {
		t.Fatal("expected ErrTooManySamples, got nil")
	}
	want, wantErr := newReference(db, opts).QueryRange(context.Background(), q, end.Add(-5*time.Minute), end, time.Minute)
	checkSame(t, q, m, err, want, wantErr)
}
