package promql

// stats.go — per-operator execution statistics (EXPLAIN ANALYZE). The
// compiler records a statsNode skeleton alongside the physical operators
// (one slot per operator, children linked by dense index), and each
// execution allocates a matching []opSlot once up front. Collection is
// allocation-free on the hot path: part.eval and part.window add call
// counts, output series and sampled wall time into the slot with atomics
// (steps of one range query may run on concurrent partitions, and
// distribute nodes fan a single operator out across shard goroutines),
// and the scan operators attribute the samples they account into their
// own slot. Clock reads are strided (statsTimeEvery) and scaled back up
// when folding; every other counter is exact. After
// the last step, buildStats folds the slots back into a QueryStats tree
// mirroring the plan, retrieved by callers through a context capture
// (WithQueryStats) and rendered by Render/Compact.
//
// Collection never touches evaluation values — results with stats on are
// byte-identical to the golden corpus, which stats_test.go pins at 1 and
// 4 shards.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// statsNode is the compile-time skeleton of one operator's stats slot:
// its plan label and the slot indexes of its children. dist >= 0 marks a
// distribute node (with its fan-out width) so buildStats can attach the
// per-shard wall times.
type statsNode struct {
	label  string
	kids   []int
	dist   int
	shards int
}

// statsTimeEvery is the wall-time sampling stride: every N-th call of an
// operator is timed (the first always is, so instant queries and EXPLAIN
// ANALYZE of a single evaluation measure every operator exactly), and
// buildOp scales the sampled sum back up by calls/timed. Counters stay
// exact; only the clock reads are sampled — on hosts where a monotonic
// clock read costs ~100ns, timing all of a 200-step range query's
// operator calls would alone exceed the 5% overhead budget.
const statsTimeEvery = 16

// opSlot is the per-execution accumulator of one operator. All fields are
// updated with atomics: partitions and shard goroutines share the slots.
type opSlot struct {
	wallNs  int64
	calls   int64
	timed   int64 // calls that contributed to wallNs
	series  int64
	samples int64
}

// noteValue counts a produced value's output series.
func (sl *opSlot) noteValue(v Value) {
	switch x := v.(type) {
	case Vector:
		atomic.AddInt64(&sl.series, int64(len(x)))
	case Matrix:
		atomic.AddInt64(&sl.series, int64(len(x)))
	}
}

// QueryStats is the profile of one query execution: totals plus a
// per-operator tree mirroring the plan.
type QueryStats struct {
	Query        string
	Kind         string // "instant" or "range"
	Start        time.Time
	Duration     time.Duration
	Samples      int64 // stored samples touched (the MaxSamples currency)
	Steps        int
	PlanCacheHit bool
	Shards       int // 0 on unsharded storage
	MaxSamples   int // the budget Samples counts against; 0 = unlimited
	Root         *OpStats
}

// OpStats is one operator's slice of the profile. Wall is inclusive of
// children (Self excludes them); on multi-step or fanned-out executions
// it sums across partitions and shards, so it can exceed the query's
// wall-clock duration.
type OpStats struct {
	Op        string
	Wall      time.Duration
	Calls     int64
	SeriesOut int64
	Samples   int64
	ShardWall []time.Duration // per-shard child wall, distribute nodes only
	Children  []*OpStats
}

// Self is the operator's exclusive wall time: total minus children,
// clamped at zero (branch-parallel children can overlap their parent).
func (o *OpStats) Self() time.Duration {
	self := o.Wall
	for _, c := range o.Children {
		self -= c.Wall
	}
	if self < 0 {
		return 0
	}
	return self
}

// Render returns the annotated plan tree, hot-path percentages included —
// the EXPLAIN ANALYZE output.
func (qs *QueryStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze for: %s\n", qs.Query)
	cache := "miss"
	if qs.PlanCacheHit {
		cache = "hit"
	}
	fmt.Fprintf(&b, "total %s | samples %s | steps %d | plan cache %s",
		formatDur(qs.Duration), formatBudget(qs.Samples, qs.MaxSamples), qs.Steps, cache)
	if qs.Shards > 0 {
		fmt.Fprintf(&b, " | shards %d", qs.Shards)
	}
	b.WriteByte('\n')
	if qs.Root != nil {
		root := qs.Root.Wall
		renderOpTree(&b, qs.Root, root, "└─ ", "   ")
	}
	return b.String()
}

func renderOpTree(b *strings.Builder, o *OpStats, root time.Duration, head, tail string) {
	b.WriteString(head)
	b.WriteString(o.Op)
	fmt.Fprintf(b, "  [%s %s | self %s | %d calls | %d out",
		formatDur(o.Wall), percentOf(o.Wall, root), formatDur(o.Self()), o.Calls, o.SeriesOut)
	if o.Samples > 0 {
		fmt.Fprintf(b, " | %d samples", o.Samples)
	}
	b.WriteByte(']')
	if len(o.ShardWall) > 0 {
		b.WriteString("  shards[")
		for i, w := range o.ShardWall {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(formatDur(w))
		}
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	for i, c := range o.Children {
		if i == len(o.Children)-1 {
			renderOpTree(b, c, root, tail+"└─ ", tail+"   ")
		} else {
			renderOpTree(b, c, root, tail+"├─ ", tail+"│  ")
		}
	}
}

// Compact returns the one-line profile the slow-query log stores:
// operators nest in plan order, each with wall time, hot-path percentage
// and output series.
func (qs *QueryStats) Compact() string {
	var b strings.Builder
	if qs.Root != nil {
		compactOp(&b, qs.Root, qs.Root.Wall)
	}
	fmt.Fprintf(&b, " | total=%s samples=%d steps=%d", formatDur(qs.Duration), qs.Samples, qs.Steps)
	return b.String()
}

func compactOp(b *strings.Builder, o *OpStats, root time.Duration) {
	b.WriteString(o.Op)
	fmt.Fprintf(b, "{%s %s %d out}", formatDur(o.Wall), percentOf(o.Wall, root), o.SeriesOut)
	if len(o.Children) > 0 {
		b.WriteByte('(')
		for i, c := range o.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			compactOp(b, c, root)
		}
		b.WriteByte(')')
	}
}

func percentOf(d, root time.Duration) string {
	if root <= 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(d)/float64(root))
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func formatBudget(samples int64, max int) string {
	if max <= 0 {
		return fmt.Sprintf("%d", samples)
	}
	return fmt.Sprintf("%d/%d", samples, max)
}

// --- capture -------------------------------------------------------------

// StatsCapture receives the QueryStats of the next evaluation run under
// its context. Safe for concurrent use (the engine deposits from the
// evaluating goroutine).
type StatsCapture struct {
	mu sync.Mutex
	qs *QueryStats
}

type statsCtxKey struct{}

// WithQueryStats derives a context that captures the execution statistics
// of the next query evaluated under it.
func WithQueryStats(ctx context.Context) (context.Context, *StatsCapture) {
	c := &StatsCapture{}
	return context.WithValue(ctx, statsCtxKey{}, c), c
}

func statsCaptureFrom(ctx context.Context) (*StatsCapture, bool) {
	c, ok := ctx.Value(statsCtxKey{}).(*StatsCapture)
	return c, ok
}

func (c *StatsCapture) set(qs *QueryStats) {
	c.mu.Lock()
	c.qs = qs
	c.mu.Unlock()
}

// Stats returns the captured profile, or nil when no evaluation deposited
// one (none ran, or it failed).
func (c *StatsCapture) Stats() *QueryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.qs
}

// --- building ------------------------------------------------------------

// buildStats folds the execution's slots into the QueryStats tree. Called
// once, after every partition has joined.
func (st *execState) buildStats(query, kind string, start time.Time, samples int64, steps int, cacheHit bool) *QueryStats {
	qs := &QueryStats{
		Query:        query,
		Kind:         kind,
		Start:        start,
		Duration:     time.Since(start),
		Samples:      samples,
		Steps:        steps,
		PlanCacheHit: cacheHit,
		MaxSamples:   st.eng.opts.MaxSamples,
	}
	if st.shardSeries != nil {
		qs.Shards = len(st.shardSeries)
	}
	qs.Root = st.buildOp(st.cp.root.statsIdx())
	return qs
}

func (st *execState) buildOp(idx int) *OpStats {
	sn := &st.cp.stats[idx]
	sl := &st.opStats[idx]
	o := &OpStats{
		Op:        sn.label,
		Wall:      time.Duration(atomic.LoadInt64(&sl.wallNs)),
		Calls:     atomic.LoadInt64(&sl.calls),
		SeriesOut: atomic.LoadInt64(&sl.series),
		Samples:   atomic.LoadInt64(&sl.samples),
	}
	// Wall time is sampled every statsTimeEvery-th call; scale the sampled
	// sum to the full call count (exact when every call was timed).
	if timed := atomic.LoadInt64(&sl.timed); timed > 0 && timed < o.Calls {
		o.Wall = time.Duration(float64(o.Wall) * float64(o.Calls) / float64(timed))
	}
	if sn.dist >= 0 && st.shardWallNs != nil {
		o.ShardWall = make([]time.Duration, sn.shards)
		for i := range o.ShardWall {
			o.ShardWall[i] = time.Duration(atomic.LoadInt64(&st.shardWallNs[sn.dist*sn.shards+i]))
		}
	}
	for _, k := range sn.kids {
		o.Children = append(o.Children, st.buildOp(k))
	}
	return o
}
