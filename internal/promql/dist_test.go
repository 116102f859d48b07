package promql

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// unshardedTestDB returns the promql fixture as a single DB regardless of
// DIO_TSDB_SHARDS, so the distributed tests control shard counts
// explicitly.
func unshardedTestDB(t testing.TB) (*tsdb.DB, time.Time) {
	t.Helper()
	db, end := testDB(t)
	if sh, ok := db.(*tsdb.ShardedDB); ok {
		return sh.Gather(), end
	}
	return db.(*tsdb.DB), end
}

// TestDistributedGoldenCorpus is the sharding oracle: every corpus query,
// over every window shape, must render byte-identically at 1, 2, 4, and 8
// shards against the unsharded engine — and at 4+ shards the distributed
// partial-aggregation path must actually fire on the aggregation queries,
// never falling back on this fixture.
func TestDistributedGoldenCorpus(t *testing.T) {
	base, end := unshardedTestDB(t)
	opts := DefaultEngineOptions()
	ref := NewEngine(base, opts)

	windows := rangeWindows(end)
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			eng := NewEngine(tsdb.Reshard(base, n), opts)
			var partials, fallbacks int
			eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) {
				partials += s.DistPartials
				fallbacks += s.DistFallbacks
			}})
			for _, w := range windows {
				for _, q := range rangeCorpus {
					got, err := eng.QueryRange(context.Background(), q, w.start, w.end, w.step)
					want, refErr := ref.QueryRange(context.Background(), q, w.start, w.end, w.step)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s %q: error mismatch: sharded=%v unsharded=%v", w.name, q, err, refErr)
					}
					if err != nil {
						if err.Error() != refErr.Error() {
							t.Errorf("%s %q: error text differs\nsharded:   %v\nunsharded: %v", w.name, q, err, refErr)
						}
						continue
					}
					if g, r := got.String(), want.String(); g != r {
						t.Errorf("%s %q: matrices differ\nsharded:\n%s\nunsharded:\n%s", w.name, q, g, r)
					}
				}
				// Instant evaluation at the window end must agree too.
				for _, q := range rangeCorpus {
					got, err := eng.Query(context.Background(), q, w.end)
					want, refErr := ref.Query(context.Background(), q, w.end)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("instant %q: error mismatch: sharded=%v unsharded=%v", q, err, refErr)
					}
					if err != nil {
						continue
					}
					if g, r := got.String(), want.String(); g != r {
						t.Errorf("instant %q at %s: results differ\nsharded:\n%s\nunsharded:\n%s", q, w.end, g, r)
					}
				}
			}
			if n > 1 {
				if partials == 0 {
					t.Error("distributed partial aggregation never fired on the corpus")
				}
				if fallbacks != 0 {
					t.Errorf("distributed path fell back %d times on a cleanly-ordered fixture", fallbacks)
				}
			} else if partials != 0 || fallbacks != 0 {
				t.Errorf("1-shard engine reported dist stats (partials=%d fallbacks=%d)", partials, fallbacks)
			}
		})
	}
}

// TestDistributeExplain pins the Explain surface: sharded engines show the
// distribute node with the shard count on shardable aggregations and omit
// it everywhere else; unsharded engines never show it.
func TestDistributeExplain(t *testing.T) {
	base, _ := unshardedTestDB(t)
	sharded := NewEngine(tsdb.Reshard(base, 4), DefaultEngineOptions())
	single := NewEngine(base, DefaultEngineOptions())

	const q = "sum by (instance) (rate(amfcc_n1_auth_request[5m]))"
	tree, err := sharded.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree, "distribute[4 shards]") {
		t.Errorf("sharded Explain missing distribute node:\n%s", tree)
	}
	expr, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := sharded.ExplainCompact(expr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(compact, "distribute[4](") {
		t.Errorf("compact form missing distribute: %s", compact)
	}
	if tree, _ := single.Explain(q); strings.Contains(tree, "distribute") {
		t.Errorf("unsharded Explain shows distribute:\n%s", tree)
	}
}

// TestDistributeEligibility pins which shapes the optimizer distributes:
// one shard-local scan under per-series operators, shardable aggregation
// op, no special calls or vector-vector binary math below the fold.
func TestDistributeEligibility(t *testing.T) {
	base, _ := unshardedTestDB(t)
	eng := NewEngine(tsdb.Reshard(base, 4), DefaultEngineOptions())
	cases := []struct {
		q    string
		dist bool
	}{
		{"sum(rate(amfcc_n1_auth_request[5m]))", true},
		{"sum by (instance) (rate(amfcc_n1_auth_request[5m]))", true},
		{"avg by (instance) (smf_pdu_session_active)", true},
		{"count(amfcc_n1_auth_request) by (nf)", true},
		{"min(smf_pdu_session_active)", true},
		{"max(smf_pdu_session_active)", true},
		{"topk(1, smf_pdu_session_active)", true},
		{"bottomk(1, smf_pdu_session_active)", true},
		{"sum(smf_pdu_session_active / 100)", true},
		{"sum(smf_pdu_session_active offset 5m)", true},
		{"sum(-smf_pdu_session_active)", true},
		// Not shardable: op outside the distributable set.
		{"stddev(smf_pdu_session_active)", false},
		{"quantile(0.5, smf_pdu_session_active)", false},
		// Not shardable: vector-vector math below the aggregation needs
		// cross-shard matching.
		{"sum(amfcc_n1_auth_request + smf_pdu_session_active)", false},
		{"sum(amfcc_n1_auth_request and smf_pdu_session_active)", false},
		// Not shardable: special calls regroup series across shards.
		{"sum(histogram_quantile(0.9, http_request_duration_seconds_bucket))", false},
		{"sum(sort(smf_pdu_session_active))", false},
		{"sum(absent(nonexistent_metric))", false},
		// Not shardable: selector without an equality __name__ anchor.
		{`sum({__name__=~"smf.*"})`, false},
	}
	for _, c := range cases {
		tree, err := eng.Explain(c.q)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		if got := strings.Contains(tree, "distribute["); got != c.dist {
			t.Errorf("%q: distribute=%v, want %v\n%s", c.q, got, c.dist, tree)
		}
	}
}

// TestDistDemotionOnExoticLabelOrder: a label name that sorts before
// __name__ breaks the name-first invariant the merged/per-shard order
// equivalence relies on. The engine must demote those distribute nodes to
// gather-then-evaluate — counted as fallbacks — and still render
// byte-identically to the unsharded engine.
func TestDistDemotionOnExoticLabelOrder(t *testing.T) {
	build := func(db tsdb.Storage) {
		base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
		for i := 0; i < 8; i++ {
			ls := tsdb.FromMap(map[string]string{
				"__name__": "exotic_metric",
				"AAA":      fmt.Sprintf("v%d", i), // sorts before __name__
			})
			for s := 0; s <= 20; s++ {
				if err := db.Append(ls, base.Add(time.Duration(s)*15*time.Second).UnixMilli(), float64(i*100+s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	single := tsdb.New()
	build(single)
	sharded := tsdb.NewSharded(4)
	build(sharded)

	opts := DefaultEngineOptions()
	eng := NewEngine(sharded, opts)
	ref := NewEngine(single, opts)
	var stats RangeStats
	eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { stats = s }})

	end := time.Date(2026, 7, 6, 12, 5, 0, 0, time.UTC)
	for _, q := range []string{"sum(exotic_metric)", "avg(exotic_metric)", "topk(2, exotic_metric)"} {
		got, err := eng.QueryRange(context.Background(), q, end.Add(-4*time.Minute), end, 30*time.Second)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want, err := ref.QueryRange(context.Background(), q, end.Add(-4*time.Minute), end, 30*time.Second)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if g, r := got.String(), want.String(); g != r {
			t.Errorf("%q: demoted result differs from unsharded\nsharded:\n%s\nunsharded:\n%s", q, g, r)
		}
		if stats.DistPartials != 0 {
			t.Errorf("%q: partial aggregation ran despite exotic label order", q)
		}
		if stats.DistFallbacks == 0 {
			t.Errorf("%q: expected a counted fallback, got none", q)
		}
	}
}

// TestShardedClampRegression (matcher/range-hint shard safety): shards
// whose heads sit at different positions must clamp windows from their own
// observable samples and still merge into the exact unsharded answer —
// including steps where only some shards have data.
func TestShardedClampRegression(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	build := func(db tsdb.Storage) {
		for i := 0; i < 8; i++ {
			ls := tsdb.FromMap(map[string]string{
				"__name__": "staggered_total",
				"instance": fmt.Sprintf("host-%d", i),
			})
			// Series i stops i minutes early: per-shard heads diverge.
			last := 40 - i*4
			for s := 0; s <= last; s++ {
				if err := db.Append(ls, base.Add(time.Duration(s)*15*time.Second).UnixMilli(), float64(s*(i+1))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	single := tsdb.New()
	build(single)
	sharded := tsdb.NewSharded(4)
	build(sharded)
	populated := 0
	for i := 0; i < sharded.NumShards(); i++ {
		if sharded.Shard(i).NumSeries() > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("fixture degenerate: only %d shards populated", populated)
	}

	opts := DefaultEngineOptions()
	eng := NewEngine(sharded, opts)
	ref := NewEngine(single, opts)
	end := base.Add(12 * time.Minute) // past every head
	for _, q := range []string{
		"staggered_total",
		"sum(staggered_total)",
		"count(staggered_total)",
		"max(staggered_total)",
		"sum(rate(staggered_total[2m]))",
		"avg_over_time(staggered_total[3m])",
	} {
		got, err := eng.QueryRange(context.Background(), q, base, end, 30*time.Second)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want, err := ref.QueryRange(context.Background(), q, base, end, 30*time.Second)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if g, r := got.String(), want.String(); g != r {
			t.Errorf("%q: staggered-head results differ\nsharded:\n%s\nunsharded:\n%s", q, g, r)
		}
	}
}

// TestDistBudgetEquivalence: the sample budget must trip at the same
// totals whether or not evaluation is distributed.
func TestDistBudgetEquivalence(t *testing.T) {
	base, end := unshardedTestDB(t)
	opts := DefaultEngineOptions()
	opts.MaxSamples = 3 // each step of the aggregation touches 4 series
	tight := opts
	tight.MaxSamples = 1 // smf_pdu_session_active has 2 series per step
	for _, n := range []int{1, 4} {
		eng := NewEngine(tsdb.Reshard(base, n), opts)
		_, err := eng.QueryRange(context.Background(), "sum(amfcc_n1_auth_request + smf_pdu_session_active)", end.Add(-5*time.Minute), end, time.Minute)
		if err == nil {
			t.Errorf("shards=%d: expected sample-budget error, got nil", n)
		}
		eng = NewEngine(tsdb.Reshard(base, n), tight)
		_, err = eng.QueryRange(context.Background(), "sum(smf_pdu_session_active)", end.Add(-5*time.Minute), end, time.Minute)
		if err == nil {
			t.Errorf("shards=%d: expected sample-budget error on distributed agg, got nil", n)
		}
	}
}
