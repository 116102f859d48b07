package promql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// longRangeDB builds a multi-day fixture: three days of 5-minute samples
// (865 points per series) for a pair of counters with distinct rates and a
// sawtooth gauge, all carrying instance labels so aggregations group and
// shards split. Range queries over this window run hundreds of steps —
// many times the default batch size — so batch boundaries fall mid-query.
func longRangeDB(t testing.TB) (*tsdb.DB, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	step := 5 * time.Minute
	n := 3 * 24 * 12 // 3 days
	for i := 0; i <= n; i++ {
		ts := base.Add(time.Duration(i) * step).UnixMilli()
		el := float64(i) * step.Seconds()
		mustAppend(t, db, map[string]string{"__name__": "upf_gtp_packets_total", "instance": "a"}, ts, 3*el)
		mustAppend(t, db, map[string]string{"__name__": "upf_gtp_packets_total", "instance": "b"}, ts, 7*el)
		mustAppend(t, db, map[string]string{"__name__": "upf_active_tunnels", "instance": "a"}, ts, float64(50+i%288))
		mustAppend(t, db, map[string]string{"__name__": "upf_active_tunnels", "instance": "b"}, ts, float64(120+(i*3)%288))
	}
	return db, base.Add(time.Duration(n) * step)
}

// longRangeCorpus extends the golden corpus with multi-day shapes: a rate
// aggregated per instance, a windowed max over the sawtooth gauge, and a
// summed increase over a 2h window.
var longRangeCorpus = []string{
	"sum by (instance) (rate(upf_gtp_packets_total[30m]))",
	"max_over_time(upf_active_tunnels[1h])",
	"sum(increase(upf_gtp_packets_total[2h]))",
}

// TestLongRangeGoldenCorpus: the long-range corpus over the full 3-day
// window (433 half-hour steps — several default batches deep) must render
// byte-identically to the reference at the default and a small batch
// size, at 1 and 4 shards.
func TestLongRangeGoldenCorpus(t *testing.T) {
	base, end := longRangeDB(t)
	start := end.Add(-72 * time.Hour)
	step := 30 * time.Minute

	def := DefaultEngineOptions()
	small := def
	small.BatchSize = 7

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := tsdb.Storage(base)
			if shards > 1 {
				db = tsdb.Reshard(base, shards)
			}
			engines := map[string]*Engine{
				"batched":     NewEngine(db, def),
				"small-batch": NewEngine(db, small),
			}
			ref := newReference(db, def)
			for _, q := range longRangeCorpus {
				want, wantErr := ref.QueryRange(context.Background(), q, start, end, step)
				if wantErr != nil {
					t.Fatalf("reference %q: %v", q, wantErr)
				}
				for name, eng := range engines {
					m, err := eng.QueryRange(context.Background(), q, start, end, step)
					checkSame(t, name+" "+q, m, err, want, wantErr)
				}
			}
		})
	}
}

// TestLongRangeBoundedIntermediate pins the memory story of streaming
// execution: over the 3-day window, peak intermediate (arena-held) bytes
// with the default batch size must come in well under a whole-range
// single-batch run, because only one batch of step vectors is ever live.
func TestLongRangeBoundedIntermediate(t *testing.T) {
	base, end := longRangeDB(t)
	start := end.Add(-72 * time.Hour)
	step := 30 * time.Minute

	peak := func(batch int) int64 {
		opts := DefaultEngineOptions()
		opts.BatchSize = batch
		opts.ExecWorkers = 1 // partitioning splits the range; single-part isolates batch size
		eng := NewEngine(base, opts)
		var p int64
		eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { p = s.PeakIntermediateBytes }})
		if _, err := eng.QueryRange(context.Background(), longRangeCorpus[0], start, end, step); err != nil {
			t.Fatal(err)
		}
		return p
	}

	batched, whole := peak(defaultBatchSize), peak(-1)
	t.Logf("peak intermediate bytes: batch=%d %d, whole-range %d", defaultBatchSize, batched, whole)
	if batched <= 0 || whole <= 0 {
		t.Fatalf("peak bytes not recorded: batched=%d whole=%d", batched, whole)
	}
	if batched*2 >= whole {
		t.Errorf("batched peak %d not meaningfully below whole-range peak %d", batched, whole)
	}
}
