package obs

// querylog.go — the slow-query log: a bounded dual-ring store over the
// engine's finished-query feed. One ring keeps the slowest queries by
// wall-clock duration, the other the heaviest by stored samples touched;
// both hold the query's compact analyzed plan and trace ID so a slow
// dashboard panel can be taken straight from /debug/queries/slow to its
// trace and its EXPLAIN ANALYZE hot path. Observe also drives the
// dio_query_* self-metrics, which the catalog documents so the copilot
// can answer questions about its own query workload.

import (
	"sort"
	"sync"
	"time"
)

// QueryLogEntry records one finished query evaluation.
type QueryLogEntry struct {
	Query    string
	Kind     string // "instant" or "range"
	Tenant   string // requesting tenant ("default" for untenanted queries)
	TraceID  string // empty when the request was untraced
	Start    time.Time
	Duration time.Duration
	Samples  int64 // stored samples touched (0 when evaluation failed)
	Steps    int
	Slow     bool   // duration reached the log's slow threshold
	Err      string // empty on success
	Plan     string // compact analyzed plan; empty when evaluation failed
}

// QueryLog is the dual-ring slow-query store. Safe for concurrent use.
type QueryLog struct {
	mu        sync.Mutex
	capacity  int
	threshold time.Duration
	slowest   []QueryLogEntry // descending by Duration
	heaviest  []QueryLogEntry // descending by Samples

	total    *CounterVec
	slow     *Counter
	duration *Histogram
	samples  *Histogram
}

// NewQueryLog returns a log keeping the top capacity entries per ring
// (default 64) and marking queries at or above slowThreshold (default 1s)
// as slow.
func NewQueryLog(capacity int, slowThreshold time.Duration) *QueryLog {
	if capacity <= 0 {
		capacity = 64
	}
	if slowThreshold <= 0 {
		slowThreshold = time.Second
	}
	return &QueryLog{capacity: capacity, threshold: slowThreshold}
}

// Instrument registers the dio_query_* self-metrics fed by Observe.
func (l *QueryLog) Instrument(reg *Registry) {
	l.total = reg.CounterVec("dio_query_total",
		"Queries evaluated by the DIO PromQL engine, partitioned by kind.", "", "kind")
	l.slow = reg.Counter("dio_query_slow_total",
		"Queries whose wall-clock duration reached the slow-query threshold.", "")
	l.duration = reg.Histogram("dio_query_duration_seconds",
		"Wall-clock duration of DIO PromQL query evaluations.", "seconds", DefBuckets())
	l.samples = reg.Histogram("dio_query_samples",
		"Stored samples touched per DIO PromQL query evaluation.", "samples",
		ExponentialBuckets(100, 10, 7))
}

// Threshold returns the slow-query duration threshold.
func (l *QueryLog) Threshold() time.Duration { return l.threshold }

// Observe records one finished query into both rings and the metrics.
func (l *QueryLog) Observe(e QueryLogEntry) {
	e.Slow = e.Duration >= l.threshold
	l.mu.Lock()
	insertTop(&l.slowest, e, l.capacity, func(a, b *QueryLogEntry) bool { return a.Duration > b.Duration })
	insertTop(&l.heaviest, e, l.capacity, func(a, b *QueryLogEntry) bool { return a.Samples > b.Samples })
	l.mu.Unlock()
	if l.total != nil {
		l.total.With(e.Kind).Inc()
		l.duration.Observe(e.Duration.Seconds())
		l.samples.Observe(float64(e.Samples))
		if e.Slow {
			l.slow.Inc()
		}
	}
}

// insertTop inserts e into the descending-ordered ring, evicting the
// smallest entry when the ring is full (a below-minimum entry on a full
// ring is dropped outright).
func insertTop(ring *[]QueryLogEntry, e QueryLogEntry, capacity int, more func(a, b *QueryLogEntry) bool) {
	r := *ring
	i := sort.Search(len(r), func(i int) bool { return !more(&r[i], &e) })
	if i >= capacity {
		return
	}
	if len(r) < capacity {
		r = append(r, QueryLogEntry{})
	}
	copy(r[i+1:], r[i:])
	r[i] = e
	*ring = r
}

// Slowest returns the slowest-by-duration ring, descending.
func (l *QueryLog) Slowest() []QueryLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]QueryLogEntry(nil), l.slowest...)
}

// Heaviest returns the heaviest-by-samples ring, descending.
func (l *QueryLog) Heaviest() []QueryLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]QueryLogEntry(nil), l.heaviest...)
}
