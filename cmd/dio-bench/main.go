// Command dio-bench regenerates every table and figure of the paper's
// evaluation (§4) plus the extension ablations:
//
//	dio-bench -experiment fig1      Figure 1  (ChatGPT vs DIO copilot)
//	dio-bench -experiment table3a   Table 3a  (end-to-end EX comparison)
//	dio-bench -experiment table3b   Table 3b  (foundation-model ablation)
//	dio-bench -experiment cost      §4.2.5    (inference cost)
//	dio-bench -experiment setup     §4        (setup checks: catalog, config)
//	dio-bench -experiment ablations extensions (context-size, few-shot,
//	                                retrieval index, feedback learning curve)
//	dio-bench -experiment engine    range-evaluation perf: per-query range
//	                                evaluation, serial vs parallel dashboards
//	dio-bench -experiment trace     ask-pipeline overhead of request-scoped
//	                                trace capture: off vs sampled vs always-on
//	dio-bench -experiment throughput  serving-layer QPS: answer cache +
//	                                singleflight on vs off under a Zipf mix
//	dio-bench -experiment ingest    durable ingest: remote-write over HTTP
//	                                into the WAL-backed store, concurrent
//	                                with the dashboard query mix
//	dio-bench -experiment shard     sharded TSDB scaling curve: the
//	                                shardable query mix plus streaming
//	                                writers at 1/2/4/8 shards
//	dio-bench -experiment batch     streaming vectorized execution: the
//	                                dashboard mix (allocs/op), and peak
//	                                intermediate bytes on multi-day ranges
//	dio-bench -experiment multitenant  multi-tenant serving: thousands of
//	                                Zipf-skewed tenants over consistent-hash
//	                                cache replicas, with a quota-capped
//	                                abusive tenant isolation gate
//	dio-bench -experiment all       everything above
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dio/internal/baselines"
	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/dashboard"
	"dio/internal/embedding"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/servecache"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "dio-bench")

func fatal(msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: fig1, table3a, table3b, cost, setup, ablations, engine, trace, throughput, ingest, shard, batch, multitenant, all")
	size := flag.Int("questions", benchmark.DefaultSize, "benchmark size")
	seed := flag.Int64("seed", 7, "benchmark generation seed")
	verbose := flag.Bool("v", false, "print per-task breakdowns")
	outCSV := flag.String("csv", "", "write per-question results of table3a/table3b to this CSV file")
	short := flag.Bool("short", false, "shrink the throughput experiment to a CI-sized smoke run")
	benchOut := flag.String("bench-out", "", "write the throughput experiment's results to this JSON file (BENCH_4.json format)")
	flag.Parse()

	env, err := newEnv(*size, *seed)
	if err != nil {
		fatal("environment", err)
	}

	run := func(name string, fn func(*env1) error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		fmt.Printf("\n================ %s ================\n", name)
		if err := fn(env); err != nil {
			fatal(name, err)
		}
	}
	env.verbose = *verbose
	env.outCSV = *outCSV
	env.short = *short
	env.benchOut = *benchOut

	run("setup", (*env1).setup)
	run("fig1", (*env1).fig1)
	run("table3a", (*env1).table3a)
	run("table3b", (*env1).table3b)
	run("cost", (*env1).cost)
	run("ablations", (*env1).ablations)
	run("engine", (*env1).engine)
	run("trace", (*env1).trace)
	run("throughput", (*env1).throughput)
	run("ingest", (*env1).ingest)
	run("shard", (*env1).shard)
	run("batch", (*env1).batch)
	run("multitenant", (*env1).multitenant)
}

// env1 carries the shared experiment environment: the catalog, the
// populated TSDB and the benchmark dataset.
type env1 struct {
	cat      *catalog.Database
	db       *tsdb.DB
	items    []benchmark.Item
	eval     *benchmark.Evaluator
	verbose  bool
	outCSV   string
	short    bool
	benchOut string
	results  []*benchmark.Result
}

func newEnv(size int, seed int64) (*env1, error) {
	fmt.Fprintln(os.Stderr, "dio-bench: generating catalog and populating the operator TSDB…")
	start := time.Now()
	cat := catalog.Generate()
	db := tsdb.New()
	rep, err := fivegsim.Populate(db, cat, fivegsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dio-bench: %s (%.1fs)\n", rep, time.Since(start).Seconds())
	items, err := benchmark.Generate(cat, size, seed)
	if err != nil {
		return nil, err
	}
	eval, err := benchmark.NewEvaluator(db)
	if err != nil {
		return nil, err
	}
	return &env1{cat: cat, db: db, items: items, eval: eval}, nil
}

// dio builds a DIO copilot over the environment for a model tier.
func (e *env1) dio(modelName string) (*baselines.DIOAdapter, error) {
	model, err := llm.New(modelName)
	if err != nil {
		return nil, err
	}
	cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: model})
	if err != nil {
		return nil, err
	}
	return &baselines.DIOAdapter{Copilot: cp, Label: "DIO copilot"}, nil
}

func (e *env1) report(r *benchmark.Result) {
	e.results = append(e.results, r)
	if e.verbose {
		fmt.Print(benchmark.FormatResult(r))
	}
	if e.outCSV != "" {
		f, err := os.Create(e.outCSV)
		if err != nil {
			fatal("csv", err)
		}
		defer f.Close()
		if err := benchmark.WriteCSV(f, e.results...); err != nil {
			fatal("csv", err)
		}
	}
}

func (e *env1) setup() error {
	fmt.Println("Catalog:", e.cat.Stats())
	fmt.Println("Dataset:", benchmark.Summary(e.items))
	opts := core.DefaultOptions()
	fmt.Printf("DIO config: top-K=%d few-shot=%d max-output-tokens=%d temperature=%g\n",
		opts.TopK, opts.FewShot, opts.MaxOutputTokens, opts.Temperature)
	minT, maxT, _ := e.db.TimeRange()
	fmt.Printf("TSDB: %d series, %d samples, %s … %s\n", e.db.NumSeries(), e.db.NumSamples(),
		time.UnixMilli(minT).Format(time.RFC3339), time.UnixMilli(maxT).Format(time.RFC3339))
	return nil
}

func (e *env1) fig1() error {
	const question = "How many PDU sessions are currently active?"
	model := llm.MustNew("gpt-4")

	// (a) Plain chat model: no operator context at all.
	direct, err := model.Complete(llm.Request{
		Kind:   llm.KindAnswerDirect,
		Prompt: &llm.Prompt{Question: question},
	})
	if err != nil {
		return err
	}
	fmt.Println("--- (a) ChatGPT (no operator context) ---")
	fmt.Println(direct.Text)

	// (b) DIO copilot.
	dio, err := e.dio("gpt-4")
	if err != nil {
		return err
	}
	ans, err := dio.Copilot.Ask(context.Background(), question)
	if err != nil {
		return err
	}
	fmt.Println("\n--- (b) DIO copilot ---")
	fmt.Print(core.RenderAnswer(ans))
	return nil
}

func (e *env1) table3a() error {
	ctx := context.Background()
	dio, err := e.dio("gpt-4")
	if err != nil {
		return err
	}
	model := llm.MustNew("gpt-4")
	din := baselines.NewDINSQL(e.cat, model, 600, 11)
	direct := baselines.NewDirect(e.cat, model, 600, 11)

	var rows [][2]string
	for _, sys := range []baselines.QuerySystem{dio, din, direct} {
		r, err := e.eval.Evaluate(ctx, sys, e.items)
		if err != nil {
			return err
		}
		rows = append(rows, [2]string{r.System, fmt.Sprintf("%.0f", r.EX())})
		e.report(r)
	}
	fmt.Print(benchmark.Table("Table 3a: End-to-end comparison (paper: DIO 66, DIN-SQL 48, GPT-4 12)", "EX (%)", rows))
	return nil
}

func (e *env1) table3b() error {
	ctx := context.Background()
	var rows [][2]string
	for _, name := range llm.ModelNames() {
		dio, err := e.dio(name)
		if err != nil {
			return err
		}
		dio.Label = name
		r, err := e.eval.Evaluate(ctx, dio, e.items)
		if err != nil {
			return err
		}
		rows = append(rows, [2]string{name, fmt.Sprintf("%.0f", r.EX())})
		e.report(r)
	}
	fmt.Print(benchmark.Table("Table 3b: Foundation-model ablation (paper: GPT-4 66, GPT-3.5-turbo 46, text-curie-001 13)", "EX (%)", rows))
	return nil
}

func (e *env1) cost() error {
	ctx := context.Background()
	var rows [][2]string
	for _, name := range []string{"gpt-4", "gpt-3.5-turbo"} {
		dio, err := e.dio(name)
		if err != nil {
			return err
		}
		dio.Label = name
		r, err := e.eval.Evaluate(ctx, dio, e.items)
		if err != nil {
			return err
		}
		rows = append(rows, [2]string{name, fmt.Sprintf("%.2f ¢ (EX %.0f%%)", r.MeanCostCents, r.EX())})
	}
	fmt.Print(benchmark.Table("Inference cost per query (§4.2.5; paper: GPT-4 4.25¢, GPT-3.5-turbo 0.35¢)", "mean cost", rows))
	return nil
}

func (e *env1) ablations() error {
	ctx := context.Background()

	// Context-size sweep: top-K ∈ {0, 5, 15, 29, 60}.
	fmt.Println("Ablation A: context size (top-K)")
	for _, k := range []int{0, 5, 15, 29, 60} {
		model := llm.MustNew("gpt-4")
		opts := core.DefaultOptions()
		opts.TopK = k
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: model, Options: opts})
		if err != nil {
			return err
		}
		r, err := e.eval.Evaluate(ctx, &baselines.DIOAdapter{Copilot: cp, Label: fmt.Sprintf("top-%d", k)}, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  top-K=%-3d EX=%.0f%%\n", k, r.EX())
	}

	// Few-shot sweep.
	fmt.Println("Ablation B: few-shot examples")
	for _, n := range []int{0, 5, 10, 20} {
		model := llm.MustNew("gpt-4")
		opts := core.DefaultOptions()
		opts.FewShot = n
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: model, Options: opts})
		if err != nil {
			return err
		}
		r, err := e.eval.Evaluate(ctx, &baselines.DIOAdapter{Copilot: cp, Label: fmt.Sprintf("fewshot-%d", n)}, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  few-shot=%-3d EX=%.0f%%\n", n, r.EX())
	}

	// Retrieval index: exact flat versus approximate IVF and HNSW.
	fmt.Println("Ablation C: retrieval index (flat vs IVF vs HNSW)")
	flat, err := core.NewRetriever(e.cat, nil)
	if err != nil {
		return err
	}
	ivf := vecstore.NewIVF(flat.EmbeddingModel().Dim(), 64, 8, 3)
	ivfRet, err := core.NewRetriever(e.cat, ivf)
	if err != nil {
		return err
	}
	if err := ivf.Build(10); err != nil {
		return err
	}
	hnsw := vecstore.NewHNSW(flat.EmbeddingModel().Dim(), 24, 300, 250, 3)
	hnswRet, err := core.NewRetriever(e.cat, hnsw)
	if err != nil {
		return err
	}
	model := flat.EmbeddingModel()
	var qvecs []embedding.Vector
	for _, it := range e.items[:50] {
		qvecs = append(qvecs, model.Embed(it.Question))
	}
	// Recall@29 of IVF against exact search.
	exact := vecstore.NewFlat(model.Dim())
	for _, d := range e.cat.Documents() {
		if err := exact.Add(d.ID, model.Embed(d.Text)); err != nil {
			return err
		}
	}
	fmt.Printf("  IVF(nlist=64, nprobe=8) recall@29 = %.3f\n", vecstore.Recall(exact, ivf, qvecs, 29))
	fmt.Printf("  HNSW(m=24, ef=250)       recall@29 = %.3f\n", vecstore.Recall(exact, hnsw, qvecs, 29))
	for _, entry := range []struct {
		label string
		ret   *core.Retriever
	}{{"flat", flat}, {"ivf", ivfRet}, {"hnsw", hnswRet}} {
		label, ret := entry.label, entry.ret
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: ret})
		if err != nil {
			return err
		}
		r, err := e.eval.Evaluate(ctx, &baselines.DIOAdapter{Copilot: cp, Label: label}, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  %-5s EX=%.0f%%\n", label, r.EX())
	}

	// Feedback learning curve: after each round, experts contribute
	// documentation for up to 10 failing questions (the §3.4 loop), and
	// the benchmark is re-run. Uses a fresh catalog because contributions
	// mutate the domain-specific database.
	fmt.Println("Ablation D: expert-feedback learning curve")
	cat := catalog.Generate()
	cp, err := core.New(core.Config{Catalog: cat, TSDB: e.db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		return err
	}
	items, err := benchmark.Generate(cat, len(e.items), 7)
	if err != nil {
		return err
	}
	adapter := &baselines.DIOAdapter{Copilot: cp, Label: "dio+feedback"}
	contributedItems := make(map[int]bool)
	for round := 0; round <= 4; round++ {
		r, err := e.eval.Evaluate(ctx, adapter, items)
		if err != nil {
			return err
		}
		fmt.Printf("  round %d: EX=%.0f%% (%d expert contributions so far)\n", round, r.EX(), len(contributedItems))
		if round == 4 {
			break
		}
		contributed := 0
		for _, ir := range r.Items {
			if ir.Correct || contributed >= 10 || contributedItems[ir.Item.ID] {
				continue
			}
			contributedItems[ir.Item.ID] = true
			// The expert ties the question's own phrasing to the right
			// metric, exactly what a resolved issue contributes.
			cat.AddExpertMetricDoc(ir.Item.Metrics[0],
				"Answers the operator question: "+ir.Item.Question,
				"r.nakamura")
			m, _ := cat.Lookup(ir.Item.Metrics[0])
			if err := cp.Retriever().AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m}); err != nil {
				return err
			}
			contributed++
		}
		if contributed == 0 {
			fmt.Println("  (no correctable failures left)")
			break
		}
	}

	// The curve above is noise-bounded: most residual failures are model
	// noise, not missing knowledge. The §3.4 claim is sharpest on
	// *out-of-vocabulary* operator jargon, where the system starts at
	// zero and every expert contribution converts a failure.
	fmt.Println("Ablation D2: feedback on out-of-vocabulary jargon")
	jargonCat := catalog.Generate()
	jcp, err := core.New(core.Config{Catalog: jargonCat, TSDB: e.db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		return err
	}
	jargon := []struct{ alias, metric string }{
		{"registration storm indicator", "amfcc_initial_registration_attempt"},
		{"attach pressure", "amfcc_initial_registration_attempt"},
		{"golden signal alpha", "smfsm_pdu_session_establishment_attempt"},
		{"session churn level", "smfsm_pdu_session_release_attempt"},
		{"paging pressure", "amfmm_paging_attempt"},
		{"air interface mobility load", "amfmm_ho_preparation_attempt"},
		{"core heartbeat pulse", "nrfnfm_nf_heartbeat_attempt"},
		{"slice picker load", "nssfsel_slice_selection_attempt"},
		{"wifi onramp volume", "n3iwfipsec_untrusted_registration_attempt"},
		{"forwarding fabric load", "upfsess_session_establishment_attempt"},
		{"subscriber fleet size", "amfcc_registered_ues"},
		{"tunnel population", "upfgtp_tunnels_active"},
	}
	var jitems []benchmark.Item
	for i, j := range jargon {
		jitems = append(jitems, benchmark.Item{
			ID:        i + 1,
			Question:  fmt.Sprintf("What is the current %s?", j.alias),
			Task:      llm.TaskCurrentTotal,
			Metrics:   []string{j.metric},
			Reference: llm.ReferenceQuery(llm.TaskCurrentTotal, []string{j.metric}),
		})
	}
	jadapter := &baselines.DIOAdapter{Copilot: jcp, Label: "dio+jargon"}
	jeval, err := benchmark.NewEvaluator(e.db)
	if err != nil {
		return err
	}
	for round := 0; round <= 3; round++ {
		r, err := jeval.Evaluate(ctx, jadapter, jitems)
		if err != nil {
			return err
		}
		fmt.Printf("  round %d: EX=%.0f%% of %d jargon questions (%d contributions)\n",
			round, r.EX(), len(jitems), round*4)
		if round == 3 {
			break
		}
		// Four expert contributions per round.
		for k := round * 4; k < (round+1)*4 && k < len(jargon); k++ {
			j := jargon[k]
			jargonCat.AddExpertMetricDoc(j.metric,
				"The "+j.alias+" is this counter's fleet-wide total.", "a.kimura")
			m, _ := jargonCat.Lookup(j.metric)
			if err := jcp.Retriever().AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m}); err != nil {
				return err
			}
		}
	}

	// Self-consistency (the complementary-techniques future work of §2):
	// sample the pipeline at temperature 0.7 several times and majority-
	// vote on the generated query, versus the paper's greedy temperature-0
	// decoding.
	fmt.Println("Ablation E: self-consistency decoding")
	greedy, err := e.dio("gpt-4")
	if err != nil {
		return err
	}
	rg, err := e.eval.Evaluate(ctx, greedy, e.items)
	if err != nil {
		return err
	}
	fmt.Printf("  greedy (temperature 0):          EX=%.0f%%\n", rg.EX())
	for _, k := range []int{3, 5} {
		opts := core.DefaultOptions()
		opts.Temperature = 0.7
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: flat, Options: opts})
		if err != nil {
			return err
		}
		sc := &selfConsistent{cp: cp, samples: k}
		r, err := e.eval.Evaluate(ctx, sc, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  self-consistency (temp 0.7, k=%d): EX=%.0f%%\n", k, r.EX())
	}
	return nil
}

// engine measures the range-evaluation hot path on the populated operator
// trace: per-query range evaluation, plus serial versus parallel
// dashboard rendering.
func (e *env1) engine() error {
	minT, maxT, ok := e.db.TimeRange()
	if !ok {
		return fmt.Errorf("engine: empty store")
	}
	start, end := time.UnixMilli(minT), time.UnixMilli(maxT)
	steps := 200
	if e.short {
		steps = 50
	}
	step := end.Sub(start) / time.Duration(steps)
	queries := []string{
		"smfsm_pdu_sessions_active",
		"sum by (instance) (rate(amfcc_initial_registration_attempt[5m]))",
	}
	fmt.Printf("range window: %s … %s, step %s (%d steps)\n",
		start.Format(time.RFC3339), end.Format(time.RFC3339), step, steps)
	eng := promql.NewEngine(e.db, promql.DefaultEngineOptions())
	for _, q := range queries {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryRange(ctx, q, start, end, step); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Printf("\nquery: %s\n  %s  %s\n", q, r.String(), r.MemString())
	}

	ex := sandbox.New(e.db, sandbox.DefaultLimits())
	d := &dashboard.Dashboard{Title: "engine-bench"}
	for _, q := range dashboardMix {
		d.Panels = append(d.Panels, dashboard.Panel{Title: q, Query: q, Kind: dashboard.KindTimeSeries})
	}
	fmt.Printf("\ndashboard: %d panels, 30m window\n", len(d.Panels))
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial  ", 1}, {"parallel", 0}} {
		r := dashboard.NewRenderer(ex, mode.workers)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := r.Render(ctx, d, end, 30*time.Minute, time.Minute, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Printf("  %s  %s  %s\n", mode.name, res.String(), res.MemString())
	}
	return nil
}

// dashboardMix is the panel query mix the serving dashboards evaluate on
// every refresh.
var dashboardMix = []string{
	"smfsm_pdu_sessions_active",
	"sum by (instance) (rate(amfcc_initial_registration_attempt[5m]))",
	"sum(rate(amfmm_paging_attempt[5m]))",
	"upfgtp_tunnels_active",
}

// trace measures the ask-pipeline cost of request-scoped trace capture:
// instrumented-but-untraced (histograms only) versus sampled (1 in 8)
// versus always-on capture. The tentpole contract is that always-on
// capture stays within 5% of the untraced pipeline.
func (e *env1) trace() error {
	const question = "How many PDU sessions are currently active?"
	const maxOverhead = 0.05

	modes := []struct {
		name        string
		sampleEvery int // 0 = capture disabled
	}{
		{"untraced ", 0},
		{"sampled-8", 8},
		{"always-on", 1},
	}
	nsOp := make(map[string]int64)
	for _, mode := range modes {
		reg := obs.NewRegistry()
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Metrics: reg})
		if err != nil {
			return err
		}
		if mode.sampleEvery > 0 {
			cp.Tracer().EnableCapture(obs.NewTraceStore(256, time.Second), mode.sampleEvery)
		}
		ctx := context.Background()
		// Warm the retriever/prompt caches so the measured loop is steady-state.
		if _, err := cp.Ask(ctx, question); err != nil {
			return err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cp.Ask(ctx, question); err != nil {
					b.Fatal(err)
				}
			}
		})
		nsOp[mode.name] = int64(r.NsPerOp())
		fmt.Printf("  %s  %s  %s\n", mode.name, r.String(), r.MemString())
	}

	base := nsOp["untraced "]
	for _, name := range []string{"sampled-8", "always-on"} {
		overhead := float64(nsOp[name]-base) / float64(base)
		fmt.Printf("  %s overhead vs untraced: %+.2f%%\n", name, overhead*100)
		if name == "always-on" && overhead > maxOverhead {
			return fmt.Errorf("trace: always-on capture overhead %.2f%% exceeds the %.0f%% budget",
				overhead*100, maxOverhead*100)
		}
	}
	fmt.Printf("  PASS: always-on capture within the %.0f%% overhead budget\n", maxOverhead*100)
	return nil
}

// throughput measures the serving layer on a concurrency-heavy repeated-
// question workload: N workers draw questions from a Zipf mix (operator
// traffic concentrates on a few recurring questions) and push them either
// straight through the pipeline (cache off) or through the answer-cache/
// singleflight front (cache on). It also checks cached answers render
// byte-identically to uncached ones and, with -bench-out, records the
// numbers in BENCH_4.json form.
func (e *env1) throughput() error {
	workers, perMode := 8, 3*time.Second
	if e.short {
		workers, perMode = 4, 750*time.Millisecond
	}
	distinct := 32
	if len(e.items) < distinct {
		distinct = len(e.items)
	}
	questions := make([]string, distinct)
	for i := range questions {
		questions[i] = e.items[i].Question
	}

	cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		return err
	}
	front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: 4096, TTL: time.Hour,
		Version: e.cat.Version, Head: e.db.HeadTime,
		Compute: cp.Ask,
	})
	ctx := context.Background()

	// Byte-identity: for every distinct question the cached answer must
	// render exactly like a fresh uncached computation.
	for _, q := range questions {
		fresh, _, err := front.Do(ctx, q, true)
		if err != nil {
			return fmt.Errorf("throughput: uncached %q: %w", q, err)
		}
		if _, _, err := front.Do(ctx, q, false); err != nil { // fills the cache
			return err
		}
		cached, st, err := front.Do(ctx, q, false)
		if err != nil {
			return err
		}
		if st != servecache.StatusHit {
			return fmt.Errorf("throughput: expected hit for %q, got %s", q, st)
		}
		if core.RenderAnswer(fresh) != core.RenderAnswer(cached) {
			return fmt.Errorf("throughput: cached answer for %q differs from uncached", q)
		}
	}
	fmt.Printf("byte-identity: cached == uncached for all %d distinct questions\n", distinct)
	front.Purge()

	// runMode hammers the front from `workers` goroutines for perMode and
	// reports aggregate QPS with latency percentiles.
	runMode := func(bypass bool) (qps float64, p50, p99 time.Duration, n int, err error) {
		lats := make([][]time.Duration, workers)
		errs := make([]error, workers)
		deadline := time.Now().Add(perMode)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Zipf s=1.2: a handful of questions dominate, with a long
				// tail — the repeated-question shape of operator traffic.
				zipf := rand.NewZipf(rand.New(rand.NewSource(int64(w)+99)), 1.2, 1, uint64(len(questions)-1))
				for time.Now().Before(deadline) {
					q := questions[zipf.Uint64()]
					t0 := time.Now()
					if _, _, err := front.Do(ctx, q, bypass); err != nil {
						errs[w] = err
						return
					}
					lats[w] = append(lats[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, e := range errs {
			if e != nil {
				return 0, 0, 0, 0, e
			}
		}
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		if len(all) == 0 {
			return 0, 0, 0, 0, fmt.Errorf("throughput: no requests completed")
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return float64(len(all)) / elapsed.Seconds(),
			all[len(all)/2], all[len(all)*99/100], len(all), nil
	}

	fmt.Printf("workload: %d workers, %d distinct questions (Zipf s=1.2), %s per mode\n",
		workers, distinct, perMode)
	offQPS, offP50, offP99, offN, err := runMode(true)
	if err != nil {
		return err
	}
	fmt.Printf("  cache off  %7.0f q/s  p50=%-10s p99=%-10s (%d asks)\n", offQPS, offP50, offP99, offN)
	onQPS, onP50, onP99, onN, err := runMode(false)
	if err != nil {
		return err
	}
	st := front.Stats()
	fmt.Printf("  cache on   %7.0f q/s  p50=%-10s p99=%-10s (%d asks, %.1f%% hit, %d coalesced)\n",
		onQPS, onP50, onP99, onN, st.HitRate()*100, st.Coalesced)

	speedup := onQPS / offQPS
	fmt.Printf("cache on vs off: %.1fx QPS (%.0f vs %.0f q/s) at %.1f%% hit rate\n",
		speedup, onQPS, offQPS, st.HitRate()*100)
	minSpeedup := 5.0
	if e.short {
		minSpeedup = 1.5 // smoke threshold: CI containers are noisy single-core boxes
	}
	if speedup < minSpeedup {
		return fmt.Errorf("throughput: %.1fx speedup below the %.1fx floor", speedup, minSpeedup)
	}
	fmt.Printf("PASS: >= %.1fx QPS with the serving cache on\n", minSpeedup)

	if e.benchOut != "" {
		if err := e.writeThroughputJSON(workers, distinct, perMode,
			offQPS, offP50, offP99, offN, onQPS, onP50, onP99, onN, st, speedup); err != nil {
			return err
		}
		fmt.Println("wrote", e.benchOut)
	}
	return nil
}

// writeThroughputJSON records the throughput run in the BENCH_N.json
// convention used by earlier perf issues.
func (e *env1) writeThroughputJSON(workers, distinct int, perMode time.Duration,
	offQPS float64, offP50, offP99 time.Duration, offN int,
	onQPS float64, onP50, onP99 time.Duration, onN int,
	st servecache.FrontStats, speedup float64) error {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	mode := func(qps float64, p50, p99 time.Duration, n int) map[string]any {
		return map[string]any{"qps": math.Round(qps), "p50_ms": ms(p50), "p99_ms": ms(p99), "asks": n}
	}
	doc := map[string]any{
		"issue": 4,
		"title": "Serving-throughput layer: answer & retrieval caching with versioned invalidation, singleflight, and admission control",
		"date":  time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"cpu": cpuModel(), "cores": runtime.NumCPU(),
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
		"command": "go run ./cmd/dio-bench -experiment throughput -bench-out BENCH_4.json",
		"workload": fmt.Sprintf("%d workers, %d distinct questions under a Zipf(s=1.2) mix, %s per mode; "+
			"full ask pipeline over the fivegsim operator trace; cache off = every request computes, "+
			"cache on = answer cache (4096 entries, 1h TTL) + singleflight keyed by "+
			"(normalized question, catalog version, TSDB-head bucket)", workers, distinct, perMode),
		"results": map[string]any{
			"cache_off": mode(offQPS, offP50, offP99, offN),
			"cache_on":  mode(onQPS, onP50, onP99, onN),
			"cache": map[string]any{
				"hits": st.Hits, "misses": st.Misses, "coalesced": st.Coalesced,
				"hit_rate": math.Round(st.HitRate()*1000) / 1000, "entries": st.Entries,
			},
		},
		"summary": map[string]any{
			"speedup":       fmt.Sprintf("%.1fx QPS with the serving cache on (%.0f vs %.0f q/s)", speedup, onQPS, offQPS),
			"hit_rate":      fmt.Sprintf("%.1f%% answer-cache hit rate on the Zipf mix", st.HitRate()*100),
			"byte_identity": "cached answers render byte-identical to uncached for every distinct question",
			"acceptance":    fmt.Sprintf("PASS: %.1fx >= 5x QPS floor on the repeated-question workload", speedup),
		},
	}
	f, err := os.Create(e.benchOut)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// cpuModel best-effort reads the CPU model name for the bench host record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// selfConsistent majority-votes over k sampled generations.
type selfConsistent struct {
	cp      *core.Copilot
	samples int
}

func (s *selfConsistent) Name() string { return fmt.Sprintf("self-consistency-%d", s.samples) }

func (s *selfConsistent) GenerateQuery(ctx context.Context, question string) (baselines.QueryResult, error) {
	votes := make(map[string]int)
	var out baselines.QueryResult
	byQuery := make(map[string]baselines.QueryResult)
	for i := 0; i < s.samples; i++ {
		ans, err := s.cp.Ask(ctx, question)
		if err != nil {
			return baselines.QueryResult{}, err
		}
		votes[ans.Query]++
		byQuery[ans.Query] = baselines.QueryResult{Query: ans.Query, Task: ans.Task}
		out.CostCents += ans.CostCents
		out.Usage.PromptTokens += ans.Usage.PromptTokens
		out.Usage.CompletionTokens += ans.Usage.CompletionTokens
	}
	best, bestVotes := "", -1
	// Deterministic tie-break by query text.
	keys := make([]string, 0, len(votes))
	for q := range votes {
		keys = append(keys, q)
	}
	sort.Strings(keys)
	for _, q := range keys {
		if votes[q] > bestVotes {
			best, bestVotes = q, votes[q]
		}
	}
	chosen := byQuery[best]
	chosen.CostCents = out.CostCents
	chosen.Usage = out.Usage
	return chosen, nil
}
