package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/embedding"
	"dio/internal/feedback"
	"dio/internal/fivegsim"
	"dio/internal/httpapi"
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/sandbox"
	"dio/internal/servecache"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

// dio-server's flag defaults, used unchanged. The server runs as
// `dio-server -data-dir <dir>`: every workload posts remote writes, which
// need the WAL-backed store.
const (
	srvModel         = "gpt-4"
	srvDuration      = 2 * time.Hour
	srvSimSeed       = 42
	srvExperts       = "r.nakamura,a.kimura,m.okafor,s.ivanova"
	srvTraceCapacity = 256
	srvTraceSample   = 1
	srvTraceSlow     = time.Second
	srvCacheSize     = 4096
	srvCacheTTL      = 30 * time.Second
	srvMaxInflight   = 64
	srvQueueWait     = 2 * time.Second
	srvWALFsync      = 25 * time.Millisecond
	srvShards        = 1
	srvScrape        = 15 * time.Second
	srvSlowQuery     = time.Second
	srvActiveSlots   = 32
)

// serverSettings lists the settings above for the run header.
func serverSettings() string {
	return fmt.Sprintf("model=%s duration=%s sim-seed=%d trace-capacity=%d trace-sample=%d trace-slow=%s "+
		"cache-size=%d cache-ttl=%s tenant-share=0 max-inflight=%d queue-wait=%s replicas=1 "+
		"wal-fsync-interval=%s tsdb-shards=%d batch-size=0 selfscrape-interval=%s (scraped once at start) "+
		"slow-query-threshold=%s active-query-slots=%d",
		srvModel, srvDuration, srvSimSeed, srvTraceCapacity, srvTraceSample, srvTraceSlow,
		srvCacheSize, srvCacheTTL, srvMaxInflight, srvQueueWait,
		srvWALFsync, srvShards, srvScrape, srvSlowQuery, srvActiveSlots)
}

// server is one in-process dio-server behind a real listener.
type server struct {
	dir   string
	url   string
	store *ingest.Store
	db    tsdb.Storage // the store's TSDB, undecorated
	reg   *obs.Registry
	cp    *core.Copilot
	front *servecache.Front[*core.Answer]
	// head is the newest sample of the simulated operator trace: the
	// reference answers' evaluation instant and every dashboard's end.
	head time.Time
	// evals holds one reference evaluator per question-generation seed:
	// Evaluator caches references by item ID, and IDs repeat across seeds.
	evals map[int64]*benchmark.Evaluator
	// lay holds the timing decorators; nil on an untraced server.
	lay *layers

	http    *http.Server
	served  chan error
	activeq *obs.ActiveQueryTracker
}

// startServer assembles a server the way dio-server's main does: generate
// the catalog, simulate the operator trace into the durable store and
// checkpoint it, register self-metrics, build the copilot with trace
// capture, the query log and active-query tracker, the answer cache and
// admission gate, and serve the HTTP API. With lay set, the decorators
// wrap the storage the copilot reads, the vector index its retriever
// searches, the front's Compute, the front, the gate and the handler.
func startServer(dir string, lay *layers, evalSeeds []int64) (_ *server, err error) {
	s := &server{dir: dir, lay: lay, served: make(chan error, 1), evals: make(map[int64]*benchmark.Evaluator)}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	cat := catalog.Generate()
	s.store, err = ingest.OpenStore(dir, ingest.StoreOptions{FsyncInterval: srvWALFsync, Shards: srvShards})
	if err != nil {
		return nil, fmt.Errorf("opening ingest store: %w", err)
	}
	s.db = s.store.DB()
	sim := fivegsim.DefaultConfig()
	sim.Duration, sim.Seed = srvDuration, srvSimSeed
	if _, err := fivegsim.Populate(s.db, cat, sim); err != nil {
		return nil, fmt.Errorf("populating TSDB: %w", err)
	}
	if err := s.store.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpointing simulated workload: %w", err)
	}
	_, maxT, _ := s.db.TimeRange()
	s.head = time.UnixMilli(maxT)
	// Evaluators pin their instant to the newest sample, so they are
	// built before the self-scrape adds wall-clock dio_* samples.
	for _, seed := range evalSeeds {
		if s.evals[seed], err = benchmark.NewEvaluator(s.db); err != nil {
			return nil, err
		}
	}

	s.reg = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(s.reg)
	cat.AddSelfMetrics()
	model, err := llm.New(srvModel)
	if err != nil {
		return nil, err
	}
	limits := sandbox.DefaultLimits()
	cfg := core.Config{Catalog: cat, TSDB: s.db, Model: model, Metrics: s.reg, Limits: &limits}
	if lay != nil {
		cfg.TSDB = timedStorage{Storage: s.db, l: lay}
		index := timedIndex{Index: vecstore.NewFlat(embedding.DefaultOptions().Dim), l: lay}
		if cfg.Retriever, err = core.NewRetriever(cat, index); err != nil {
			return nil, err
		}
	}
	if s.cp, err = core.New(cfg); err != nil {
		return nil, err
	}
	s.cp.Tracer().EnableCapture(obs.NewTraceStore(srvTraceCapacity, srvTraceSlow), srvTraceSample)

	tracker := feedback.NewTracker(strings.Split(srvExperts, ","), nil)
	feedback.WireCopilot(tracker, s.cp)
	tracker.Instrument(s.reg)
	qlog := obs.NewQueryLog(0, srvSlowQuery)
	qlog.Instrument(s.reg)
	s.activeq, _, err = obs.NewActiveQueryTracker(dir, srvActiveSlots)
	if err != nil {
		return nil, fmt.Errorf("active-query tracker: %w", err)
	}
	s.cp.Executor().ObserveQueries(qlog, s.activeq)
	s.store.Instrument(s.reg)

	compute := s.cp.Ask
	if lay != nil {
		compute = lay.computeFunc(s.cp.Ask)
	}
	s.front = servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: srvCacheSize, TTL: srvCacheTTL, Version: cat.Version,
		TenantVersion: s.cp.TenantVersion, Head: s.db.HeadTime, Compute: compute,
	})
	s.front.Instrument(s.reg)
	gate := servecache.NewGate(srvMaxInflight, srvQueueWait)
	gate.Instrument(s.reg)
	var front httpapi.AnswerFront = s.front
	var admitter httpapi.Admitter = gate
	if lay != nil {
		front, admitter = timedFront{next: s.front, l: lay}, timedGate{next: gate, l: lay}
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	var h http.Handler = httpapi.New(s.cp, tracker, logger,
		httpapi.WithMetrics(s.reg), httpapi.WithQueryObservability(qlog, s.activeq),
		httpapi.WithIngest(s.store), httpapi.WithTracing(s.cp.Tracer()),
		httpapi.WithServingLayer(front, admitter))
	if lay != nil {
		h = lay.handler(h)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.http.Serve(ln) }()

	// The self-scrape appends the dio_* series once. dio-server repeats it
	// every 15s at wall-clock time, and each repeat moves the TSDB head:
	// a head-bucket change expires every cached answer at a point in the
	// phase the seed does not control, so the loop is not run.
	obs.NewSelfScraper(s.reg, s.db, srvScrape, logger).ScrapeOnce()
	return s, nil
}

// stop shuts the listener and closes the store, then deletes its files.
func (s *server) stop() {
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.http.Shutdown(ctx) // Close below ends whatever Shutdown left
		cancel()
		_ = s.http.Close()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
	}
	if s.activeq != nil {
		_ = s.activeq.Close() // the tracker's file is deleted with the directory
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing ingest store:", err)
		}
	}
	os.RemoveAll(s.dir)
}
