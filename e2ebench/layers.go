package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/core"
	"dio/internal/embedding"
	"dio/internal/httpapi"
	"dio/internal/servecache"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

// layers holds the timing decorators of a traced server. Each decorator
// wraps one public interface or function value the server is assembled
// from and adds the call's wall time to a timer; per-layer metrics are the
// timers' movement over a phase.
type layers struct {
	serve   timer // httpapi.Server.ServeHTTP, ask and query_range routes
	front   timer // httpapi.AnswerFront.Do
	compute timer // core.Copilot.Ask as the front's Compute
	gate    timer // httpapi.Admitter.Acquire
	search  timer // vecstore.Index.Search
	sel     timer // tsdb.Storage selects

	hits atomic.Int64 // front statuses: hit
	miss atomic.Int64 // miss, coalesced or bypass

	mu        sync.Mutex
	gateWaits []time.Duration // every Acquire since the last reset
}

// timer accumulates call counts and wall time.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) since(start time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

// timerSnap is a timer read at one instant.
type timerSnap struct {
	n  int64
	ns time.Duration
}

func (t *timer) snap() timerSnap { return timerSnap{t.n.Load(), time.Duration(t.ns.Load())} }

// layerSnap is every layer timer read at one instant.
type layerSnap struct {
	serve, front, compute, gate, search, sel timerSnap
	hits, miss                               int64
}

func (l *layers) snap() layerSnap {
	return layerSnap{
		serve: l.serve.snap(), front: l.front.snap(), compute: l.compute.snap(),
		gate: l.gate.snap(), search: l.search.snap(), sel: l.sel.snap(),
		hits: l.hits.Load(), miss: l.miss.Load(),
	}
}

// takeGateWaits returns and clears the recorded admission waits.
func (l *layers) takeGateWaits() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.gateWaits
	l.gateWaits = nil
	return w
}

// handler times the HTTP surface. Writes are left out: their time is the
// WAL group-commit wait inside the concrete ingest store, which no
// decorator can reach, and it would swamp the handler's own work.
func (l *layers) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if r.URL.Path == "/api/v1/ask" || r.URL.Path == "/api/v1/query_range" {
			l.serve.since(start)
		}
	})
}

type timedFront struct {
	next httpapi.AnswerFront
	l    *layers
}

func (f timedFront) Do(ctx context.Context, question string, bypass bool) (*core.Answer, servecache.Status, error) {
	start := time.Now()
	a, st, err := f.next.Do(ctx, question, bypass)
	f.l.front.since(start)
	if st == servecache.StatusHit {
		f.l.hits.Add(1)
	} else {
		f.l.miss.Add(1)
	}
	return a, st, err
}

type timedGate struct {
	next httpapi.Admitter
	l    *layers
}

func (g timedGate) Acquire(ctx context.Context) (func(), error) {
	start := time.Now()
	release, err := g.next.Acquire(ctx)
	g.l.gate.since(start)
	g.l.mu.Lock()
	g.l.gateWaits = append(g.l.gateWaits, time.Since(start))
	g.l.mu.Unlock()
	return release, err
}

// computeFunc times the copilot pipeline the answer cache runs on a miss.
func (l *layers) computeFunc(ask func(context.Context, string) (*core.Answer, error)) func(context.Context, string) (*core.Answer, error) {
	return func(ctx context.Context, q string) (*core.Answer, error) {
		start := time.Now()
		a, err := ask(ctx, q)
		l.compute.since(start)
		return a, err
	}
}

type timedIndex struct {
	vecstore.Index
	l *layers
}

func (ix timedIndex) Search(query embedding.Vector, k int) []vecstore.Result {
	start := time.Now()
	r := ix.Index.Search(query, k)
	ix.l.search.since(start)
	return r
}

// timedStorage times the selects the query engine issues; appends and
// metadata calls pass straight through.
type timedStorage struct {
	tsdb.Storage
	l *layers
}

func (s timedStorage) Select(m []*tsdb.Matcher, t, lookback int64) []tsdb.SeriesPoint {
	start := time.Now()
	r := s.Storage.Select(m, t, lookback)
	s.l.sel.since(start)
	return r
}

func (s timedStorage) SelectRange(m []*tsdb.Matcher, start, end int64) []tsdb.SeriesRange {
	t0 := time.Now()
	r := s.Storage.SelectRange(m, start, end)
	s.l.sel.since(t0)
	return r
}

func (s timedStorage) SelectSeries(m []*tsdb.Matcher) []tsdb.SeriesView {
	start := time.Now()
	r := s.Storage.SelectSeries(m)
	s.l.sel.since(start)
	return r
}

func (s timedStorage) SelectBatch(hints []tsdb.SelectHint) [][]tsdb.SeriesView {
	start := time.Now()
	r := s.Storage.SelectBatch(hints)
	s.l.sel.since(start)
	return r
}

// Per-layer metrics in output order, with units. Times are per call of
// the named function, except the ask-pipeline stages (embed, prompt
// build, complete, execute and the unattributed rest), which are per
// computed ask so that they sum to core.ask_ms.
var layerUnits = []metricUnit{
	{"httpapi.self_ms", "ms"},
	{"servecache.gate_wait_ms", "ms"},
	{"servecache.hit_ratio", "ratio"},
	{"servecache.front_self_ms", "ms"},
	{"core.ask_ms", "ms"},
	{"core.asks", "count"},
	{"core.retrieval_hit_ratio", "ratio"},
	{"core.unattributed_ms", "ms"},
	{"embedding.embed_ms", "ms"},
	{"vecstore.search_ms", "ms"},
	{"vecstore.searches", "count"},
	{"llm.prompt_build_ms", "ms"},
	{"llm.complete_ms", "ms"},
	{"llm.prompt_tokens_per_ask", "tokens"},
	{"sandbox.execute_ms", "ms"},
	{"sandbox.execute_range_ms", "ms"},
	{"promql.samples_per_query", "samples"},
	{"tsdb.select_ms", "ms"},
	{"ingest.fsync_ms", "ms"},
	{"ingest.samples_per_fsync", "samples"},
	{"ingest.wal_bytes_per_sample", "bytes"},
	{"dashboard.panels_per_dashboard", "count"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.sched_latency_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"obs.traces_captured", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.trace_overhead_pct", "%"},
}

// layerMetrics derives the per-layer metrics from the decorators' timers
// and the server's own registry, both diffed over the phase. Layers the
// benchmark cannot wrap from outside (the retriever's embedding model,
// the copilot's prompt assembly and model, the sandbox executor) are read
// from the pipeline's stage-duration histogram and the sandbox's
// execution histogram.
func layerMetrics(before, after layerSnap, rb, ra regSnap) map[string]float64 {
	d := func(key string) float64 { return delta(rb, ra, key) }
	stageMS := func(stage string) float64 { return 1000 * d("dio_stage_duration_seconds_sum,"+stage) }
	sub := func(a, b timerSnap) timerSnap { return timerSnap{a.n - b.n, a.ns - b.ns} }
	serve, front := sub(after.serve, before.serve), sub(after.front, before.front)
	compute, gate := sub(after.compute, before.compute), sub(after.gate, before.gate)
	search, sel := sub(after.search, before.search), sub(after.sel, before.sel)
	asks := float64(compute.n)

	// ExecuteRange time is the sandbox's execution time less the asks'
	// instant executions, which the sandbox-exec stage spans cover.
	rangeMS := 1000*d("dio_sandbox_exec_duration_seconds_sum") - stageMS("sandbox-exec")
	ranges := d("dio_sandbox_exec_duration_seconds_count") - d("dio_stage_duration_seconds_count,sandbox-exec")
	var retrievals float64
	for _, outcome := range []string{"hit", "miss", "coalesced", "bypass"} {
		retrievals += d("dio_cache_requests_total,retrieval," + outcome)
	}
	hits, misses := after.hits-before.hits, after.miss-before.miss
	askMS := ratio(ms(compute.ns), asks)
	stages := stageMS("retrieve") + stageMS("prompt-build") + stageMS("llm") + stageMS("sandbox-exec")
	return map[string]float64{
		"httpapi.self_ms":             ratio(ms(serve.ns-front.ns-gate.ns)-rangeMS, float64(serve.n)),
		"servecache.hit_ratio":        ratio(float64(hits), float64(hits+misses)),
		"servecache.front_self_ms":    ratio(ms(front.ns-compute.ns), float64(front.n)),
		"core.ask_ms":                 askMS,
		"core.asks":                   asks,
		"core.retrieval_hit_ratio":    ratio(d("dio_cache_requests_total,retrieval,hit"), retrievals),
		"core.unattributed_ms":        askMS - ratio(stages, asks),
		"embedding.embed_ms":          ratio(stageMS("retrieve")-ms(search.ns), asks),
		"vecstore.search_ms":          ratio(ms(search.ns), float64(search.n)),
		"vecstore.searches":           float64(search.n),
		"llm.prompt_build_ms":         ratio(stageMS("prompt-build"), asks),
		"llm.complete_ms":             ratio(stageMS("llm"), asks),
		"llm.prompt_tokens_per_ask":   ratio(d("dio_llm_prompt_tokens_total"), asks),
		"sandbox.execute_ms":          ratio(stageMS("sandbox-exec"), asks),
		"sandbox.execute_range_ms":    ratio(rangeMS, ranges),
		"promql.samples_per_query":    ratio(d("dio_query_samples_sum"), d("dio_query_samples_count")),
		"tsdb.select_ms":              ratio(ms(sel.ns), float64(sel.n)),
		"ingest.fsync_ms":             ratio(1000*d("dio_wal_fsync_seconds_sum"), d("dio_wal_fsync_seconds_count")),
		"ingest.samples_per_fsync":    ratio(d("dio_ingest_appended_samples_total"), d("dio_wal_fsync_seconds_count")),
		"ingest.wal_bytes_per_sample": ratio(d("dio_wal_bytes_written_total"), d("dio_ingest_appended_samples_total")),
		"obs.traces_captured":         d("dio_traces_captured_total"),
	}
}

// printLayers prints the per-layer metrics and how the ask pipeline's
// stages account for core.ask_ms.
func (r *result) printLayers() {
	fmt.Println("per-layer (traced run):")
	for _, m := range layerUnits {
		fmt.Printf("  %-32s %12.4f %s\n", m.name, r.layer[m.name], m.unit)
	}
	ask := r.layer["core.ask_ms"]
	if ask == 0 {
		return
	}
	fmt.Printf("core.ask_ms %.4f ms per computed ask, attributed:\n", ask)
	for _, name := range []string{"embedding.embed_ms", "vecstore.search_ms", "llm.prompt_build_ms",
		"llm.complete_ms", "sandbox.execute_ms", "core.unattributed_ms"} {
		v := r.layer[name]
		if name == "vecstore.search_ms" {
			v *= ratio(r.layer["vecstore.searches"], r.layer["core.asks"])
		}
		fmt.Printf("  %-32s %10.4f ms %6.1f%%\n", name, v, 100*v/ask)
	}
}
