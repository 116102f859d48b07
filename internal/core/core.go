// Package core implements the paper's primary contribution: the DIO
// copilot pipeline (§3). A question flows through the context extractor
// (semantic search over the domain-specific database, top-29 documents),
// foundation-model metric selection, few-shot PromQL generation (20
// expert tuples), sandboxed execution against the operator TSDB, and
// dashboard generation; the response carries the relevant metrics with
// their documentation, the query, a numerically accurate answer, the
// dashboard spec, and a hook to request expert assistance (§3.4).
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dio/internal/catalog"
	"dio/internal/dashboard"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/tenant"
	"dio/internal/tsdb"
)

// Options tunes the pipeline. Defaults reproduce the paper's setup (§4).
type Options struct {
	// TopK is how many text samples the context extractor appends
	// (the paper uses 29).
	TopK int
	// FewShot is how many expert examples enter the prompt (paper: 20).
	FewShot int
	// MaxOutputTokens caps completions (paper: 1000).
	MaxOutputTokens int
	// Temperature: the paper sets 0 "for repeatable answers".
	Temperature float64
	// EvalTime fixes the query evaluation instant; zero means the newest
	// sample in the store.
	EvalTime time.Time
}

// DefaultOptions mirrors §4.
func DefaultOptions() Options {
	return Options{TopK: 29, FewShot: 20, MaxOutputTokens: 1000, Temperature: 0}
}

// SelectedMetric is one metric in an answer, with its documentation.
type SelectedMetric struct {
	Name        string
	Description string
	Known       bool // present in the domain-specific database
}

// Answer is the copilot response surface of Figure 1b.
type Answer struct {
	Question string
	// Task is the analytics intent the model inferred.
	Task llm.TaskKind
	// Metrics are the most relevant metrics with their documentation.
	Metrics []SelectedMetric
	// Query is the generated PromQL.
	Query string
	// Value is the executed numeric result (nil when execution failed).
	Value promql.Value
	// ValueText is the rendered numeric answer or the error message.
	ValueText string
	// ExecErr holds the execution failure, if any.
	ExecErr error
	// Function names the bespoke domain-database recipe the generated
	// query instantiates, when one matches ("" otherwise).
	Function string
	// Dashboard is the generated visualisation spec for the relevant
	// metrics.
	Dashboard *dashboard.Dashboard
	// Context is the retrieved top-K context (for transparency and the
	// feedback loop).
	Context []llm.ContextDoc
	// Usage/CostCents aggregate the model calls of this answer.
	Usage     llm.Usage
	CostCents float64
	// TraceID identifies the captured request-scoped trace of this answer
	// ("" when trace capture is off or the request was not sampled); the
	// full span tree is retrievable at /debug/traces/{id}.
	TraceID string
	// AnalyzedPlan is the EXPLAIN ANALYZE rendering of the executed query
	// (per-operator wall time, series and sample counts). Only populated
	// when the ask ran with WithAnalyze and execution succeeded.
	AnalyzedPlan string
}

// analyzeKey marks a context as requesting per-operator execution
// statistics on the answer.
type analyzeKey struct{}

// WithAnalyze marks ctx so the ask's sandboxed execution collects
// EXPLAIN ANALYZE statistics into Answer.AnalyzedPlan (the `analyze`
// flag of the HTTP ask API).
func WithAnalyze(ctx context.Context) context.Context {
	return context.WithValue(ctx, analyzeKey{}, true)
}

func analyzeFrom(ctx context.Context) bool {
	on, _ := ctx.Value(analyzeKey{}).(bool)
	return on
}

// Copilot is the assembled DIO pipeline. It is safe for concurrent use.
type Copilot struct {
	db        *catalog.Database
	retriever *Retriever
	model     *llm.Model
	exec      *sandbox.Executor
	renderer  *dashboard.Renderer
	fewshot   []llm.Example
	opts      Options
	metrics   *pipelineMetrics
}

// pipelineMetrics holds the copilot's self-observability instruments
// (nil when the copilot is built without a registry).
type pipelineMetrics struct {
	tracer    *obs.Tracer
	askDur    *obs.Histogram  // dio_ask_duration_seconds
	asks      *obs.CounterVec // dio_ask_total{outcome}
	promptTok *obs.Counter    // dio_llm_prompt_tokens_total
	complTok  *obs.Counter    // dio_llm_completion_tokens_total
	costCents *obs.Counter    // dio_llm_cost_cents_total
	llmCalls  *obs.CounterVec // dio_llm_calls_total{kind}
}

func newPipelineMetrics(reg *obs.Registry) *pipelineMetrics {
	return &pipelineMetrics{
		tracer: obs.NewTracer(reg, nil),
		askDur: reg.Histogram("dio_ask_duration_seconds",
			"End-to-end latency of one copilot question.", "seconds", obs.DefBuckets()),
		asks: reg.CounterVec("dio_ask_total",
			"Questions answered, by outcome (ok, exec_error, error).", "", "outcome"),
		promptTok: reg.Counter("dio_llm_prompt_tokens_total",
			"Prompt tokens sent to the foundation model.", ""),
		complTok: reg.Counter("dio_llm_completion_tokens_total",
			"Completion tokens returned by the foundation model.", ""),
		costCents: reg.Counter("dio_llm_cost_cents_total",
			"Accumulated foundation-model spend in cents.", ""),
		llmCalls: reg.CounterVec("dio_llm_calls_total",
			"Foundation-model invocations, by request kind.", "", "kind"),
	}
}

// Config assembles a Copilot.
type Config struct {
	Catalog *catalog.Database
	TSDB    tsdb.Storage
	Model   *llm.Model
	Options Options
	// Retriever overrides the default flat-index retriever (ablations use
	// an IVF index); nil builds the default.
	Retriever *Retriever
	// Limits overrides the sandbox limits.
	Limits *sandbox.Limits
	// Metrics, when set, instruments the pipeline (stage spans, ask
	// latency, token accounting) and the sandboxed executor on the
	// registry. Nil disables self-observability.
	Metrics *obs.Registry
}

// New builds the pipeline: trains/indexes the context extractor over the
// domain-specific database and wires the sandboxed executor.
func New(cfg Config) (*Copilot, error) {
	if cfg.Catalog == nil || cfg.TSDB == nil || cfg.Model == nil {
		return nil, fmt.Errorf("core: catalog, tsdb and model are required")
	}
	opts := cfg.Options
	if opts == (Options{}) {
		opts = DefaultOptions()
	}
	r := cfg.Retriever
	if r == nil {
		var err error
		r, err = NewRetriever(cfg.Catalog, nil)
		if err != nil {
			return nil, err
		}
	}
	limits := sandbox.DefaultLimits()
	if cfg.Limits != nil {
		limits = *cfg.Limits
	}
	few := FewShotExamples()
	if opts.FewShot < len(few) {
		few = few[:opts.FewShot]
	}
	cp := &Copilot{
		db:        cfg.Catalog,
		retriever: r,
		model:     cfg.Model,
		exec:      sandbox.New(cfg.TSDB, limits),
		fewshot:   few,
		opts:      opts,
	}
	cp.renderer = dashboard.NewRenderer(cp.exec, 0)
	if cfg.Metrics != nil {
		cp.metrics = newPipelineMetrics(cfg.Metrics)
		cp.exec.Instrument(cfg.Metrics)
		cp.renderer.Instrument(cfg.Metrics)
		cp.retriever.Instrument(cfg.Metrics)
	}
	return cp, nil
}

// Model returns the underlying foundation model.
func (c *Copilot) Model() *llm.Model { return c.model }

// Retriever returns the context extractor.
func (c *Copilot) Retriever() *Retriever { return c.retriever }

// Executor returns the sandboxed query executor.
func (c *Copilot) Executor() *sandbox.Executor { return c.exec }

// Renderer returns the copilot's dashboard renderer (parallel panel
// evaluation; instrumented when the copilot has a metrics registry).
func (c *Copilot) Renderer() *dashboard.Renderer { return c.renderer }

// ExplainQuery returns the optimized execution plan for a PromQL query,
// rendered as an operator tree with the optimizer passes that applied —
// the same plan the sandbox executes and attaches to traces. It fails on
// queries that do not parse or cannot be planned.
func (c *Copilot) ExplainQuery(query string) (string, error) {
	return c.exec.Engine().Explain(query)
}

// ExplainAnalyzeQuery executes a PromQL query at the metric-aware
// evaluation instant (the newest sample among the metrics it selects, so
// frozen operator queries are profiled over their own timeline rather
// than the live dio_* one) and returns the plan annotated with measured
// per-operator cost: wall time with hot-path percentages, series
// produced, and stored samples scanned. Unlike ExplainQuery this runs
// the query for real.
func (c *Copilot) ExplainAnalyzeQuery(ctx context.Context, query string) (string, error) {
	ts := c.evalTime()
	if expr, err := promql.Parse(query); err == nil {
		if names := promql.MetricNames(expr); len(names) > 0 {
			ts = c.evalTimeFor(names)
		}
	}
	return c.exec.Engine().ExplainAnalyze(ctx, query, ts)
}

// Tracer returns the pipeline tracer (nil when the copilot was built
// without a metrics registry). Callers enable request-scoped capture with
// Tracer().EnableCapture.
func (c *Copilot) Tracer() *obs.Tracer {
	if c.metrics == nil {
		return nil
	}
	return c.metrics.tracer
}

// Catalog returns the domain-specific database.
func (c *Copilot) Catalog() *catalog.Database { return c.db }

// TenantVersion returns the combined knowledge version one tenant's cached
// answers depend on: the catalog version plus the retriever version, each
// folding in that tenant's private overlay counter. The serving-layer
// answer cache keys on it, so a contribution — shared or tenant-scoped —
// makes exactly the affected tenants' stale answers unaddressable.
func (c *Copilot) TenantVersion(id string) uint64 {
	return c.db.TenantVersion(id) + c.retriever.TenantVersion(id)
}

// AddTenantDoc records an expert metric contribution on behalf of a
// tenant, updating both the catalog (documentation shown in answers) and
// the retriever (so the tenant's next question can retrieve it). The
// default tenant contributes to the shared base, exactly as the feedback
// loop did before tenancy.
func (c *Copilot) AddTenantDoc(id, name, description, expert string) error {
	m := c.db.AddTenantMetricDoc(id, name, description, expert)
	return c.retriever.AddDocumentTenant(id, catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m})
}

// evalTime resolves the evaluation instant.
func (c *Copilot) evalTime() time.Time {
	if !c.opts.EvalTime.IsZero() {
		return c.opts.EvalTime
	}
	if _, maxT, ok := c.exec.Engine().DB().TimeRange(); ok {
		return time.UnixMilli(maxT)
	}
	return time.Unix(0, 0)
}

// evalTimeFor resolves the evaluation instant for a query over the given
// metrics: the newest sample among them. The store mixes timelines once
// self-scraping is on (the operator trace is frozen while dio_* series
// are live), so "now" must follow the data actually being asked about;
// the store-wide newest sample remains the fallback.
func (c *Copilot) evalTimeFor(metrics []string) time.Time {
	if !c.opts.EvalTime.IsZero() {
		return c.opts.EvalTime
	}
	db := c.exec.Engine().DB()
	var newest int64
	found := false
	for _, name := range metrics {
		if _, maxT, ok := db.MetricTimeRange(name); ok && (!found || maxT > newest) {
			newest, found = maxT, true
		}
	}
	if found {
		return time.UnixMilli(newest)
	}
	return c.evalTime()
}

// promptBudget returns the token budget left for context after reserving
// completion space.
func (c *Copilot) promptBudget() int {
	return c.model.ContextWindow() - c.opts.MaxOutputTokens
}

// Ask runs the full pipeline for one question. When the context carries no
// trace (a direct library or CLI call), a capture-enabled copilot starts
// its own, so every sampled ask has a retrievable span tree; requests
// arriving through httpapi reuse the server-assigned trace instead.
func (c *Copilot) Ask(ctx context.Context, question string) (*Answer, error) {
	if c.metrics == nil {
		return c.ask(ctx, question)
	}
	ctx = obs.WithTracer(ctx, c.metrics.tracer)
	root := obs.SpanFrom(ctx)
	owned := false
	if !root.Recording() {
		ctx, root = c.metrics.tracer.StartTrace(ctx, "ask")
		owned = true
	}
	root.SetAttr("question", question)
	start := time.Now()
	a, err := c.ask(ctx, question)
	c.metrics.askDur.Observe(time.Since(start).Seconds())
	outcome := "ok"
	switch {
	case err != nil:
		outcome = "error"
		root.SetError(err)
	case a.ExecErr != nil:
		outcome = "exec_error"
	}
	c.metrics.asks.With(outcome).Inc()
	root.SetAttr("outcome", outcome)
	if a != nil {
		root.SetAttr("cost_cents", a.CostCents)
	}
	if owned {
		root.End()
	}
	return a, err
}

// scoredRef is the wire shape of one retrieved-metric trace attribute.
type scoredRef struct {
	Metric string  `json:"metric"`
	Score  float64 `json:"score"`
}

// ask is the uninstrumented pipeline; the stage spans inside are no-ops
// unless Ask put a tracer (and, for capture, a trace root) on the context.
// Each stage span is started from the pipeline root context so the stages
// are siblings under the request span, and nested work (sandbox execution,
// query evaluation) receives the stage's derived context so its events
// attach to the right span.
func (c *Copilot) ask(ctx context.Context, question string) (*Answer, error) {
	if strings.TrimSpace(question) == "" {
		return nil, fmt.Errorf("core: empty question")
	}
	a := &Answer{Question: question, TraceID: obs.SpanFrom(ctx).TraceID()}
	tid := tenant.From(ctx)

	// 1. Context extraction: top-K semantically closest text samples, as
	// seen by the requesting tenant (shared corpus + its private overlay).
	_, sp := obs.StartSpan(ctx, "retrieve")
	scored := c.retriever.RetrieveScoredTenant(tid, question, c.opts.TopK)
	a.Context = make([]llm.ContextDoc, len(scored))
	for i, s := range scored {
		a.Context[i] = s.Doc
	}
	if sp.Recording() {
		top := scored
		if len(top) > 10 {
			top = top[:10]
		}
		refs := make([]scoredRef, len(top))
		for i, s := range top {
			refs[i] = scoredRef{Metric: s.Doc.ID, Score: s.Score}
		}
		sp.SetAttr("retrieved.count", len(scored))
		sp.SetAttr("retrieved.metrics", refs)
	}
	sp.End()

	builder := &llm.Builder{
		System:      "You are a data analytics assistant for 5G operator metrics. Identify the relevant metrics and produce a PromQL query answering the question.",
		TokenBudget: c.promptBudget(),
	}

	// 2. Metric selection by the foundation model over the filtered set.
	// Descriptions are clipped to their leading tokens in the prompt —
	// enough to disambiguate, while keeping per-query token cost near the
	// paper's (§4.2.5).
	_, sp = obs.StartSpan(ctx, "prompt-build")
	clipped := make([]llm.ContextDoc, len(a.Context))
	for i, d := range a.Context {
		clipped[i] = llm.ContextDoc{ID: d.ID, Text: llm.TruncateToTokens(d.Text, 24)}
	}
	selPrompt := builder.Build(clipped, nil, question)
	if sp.Recording() {
		sp.SetAttr("prompt.context_docs", len(selPrompt.Context))
		sp.SetAttr("prompt.tokens", selPrompt.Tokens())
	}
	sp.End()
	_, sp = obs.StartSpan(ctx, "llm")
	selResp, err := c.model.Complete(llm.Request{
		Kind: llm.KindSelectMetrics, Prompt: selPrompt, Temperature: c.opts.Temperature,
	})
	if sp.Recording() {
		sp.SetAttr("llm.kind", "select_metrics")
		sp.SetAttr("llm.model", c.model.Name())
		sp.SetAttr("llm.prompt_tokens", selResp.Usage.PromptTokens)
		sp.SetAttr("llm.completion_tokens", selResp.Usage.CompletionTokens)
		sp.SetAttr("llm.selected_metrics", selResp.Metrics)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: metric selection: %w", err)
	}
	c.accumulate(a, selResp, "select_metrics")
	a.Task = selResp.Task

	// 3. Few-shot code generation over the selected metrics.
	_, sp = obs.StartSpan(ctx, "prompt-build")
	selDocs := make([]llm.ContextDoc, 0, len(selResp.Metrics))
	for _, name := range selResp.Metrics {
		if d, ok := c.retriever.DocTenant(tid, name); ok {
			selDocs = append(selDocs, llm.ContextDoc{ID: d.ID, Text: llm.TruncateToTokens(d.Text, 24)})
		} else {
			selDocs = append(selDocs, llm.ContextDoc{ID: name})
		}
	}
	genPrompt := builder.Build(selDocs, c.fewshot, question)
	if sp.Recording() {
		sp.SetAttr("prompt.context_docs", len(genPrompt.Context))
		sp.SetAttr("prompt.fewshot", len(genPrompt.Examples))
		sp.SetAttr("prompt.tokens", genPrompt.Tokens())
	}
	sp.End()
	_, sp = obs.StartSpan(ctx, "llm")
	genResp, err := c.model.Complete(llm.Request{
		Kind: llm.KindGenerateQuery, Prompt: genPrompt,
		Metrics: selResp.Metrics, Task: selResp.Task,
		Temperature: c.opts.Temperature,
	})
	if sp.Recording() {
		sp.SetAttr("llm.kind", "generate_query")
		sp.SetAttr("llm.model", c.model.Name())
		sp.SetAttr("llm.prompt_tokens", genResp.Usage.PromptTokens)
		sp.SetAttr("llm.completion_tokens", genResp.Usage.CompletionTokens)
		sp.SetAttr("llm.query", genResp.Query)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: code generation: %w", err)
	}
	c.accumulate(a, genResp, "generate_query")
	a.Query = genResp.Query
	if a.Task == llm.TaskUnknown {
		a.Task = genResp.Task
	}

	// Describe the selected metrics.
	for _, name := range genResp.Metrics {
		sm := SelectedMetric{Name: name}
		if m, ok := c.db.LookupTenant(tid, name); ok {
			sm.Description = m.Description
			sm.Known = true
		}
		a.Metrics = append(a.Metrics, sm)
	}

	// 4. Sandboxed execution for a numerically accurate answer.
	if a.Query == "" {
		a.ExecErr = fmt.Errorf("core: the model produced no query")
		a.ValueText = selResp.Text
	} else {
		sctx, sp := obs.StartSpan(ctx, "sandbox-exec")
		// An analyze ask captures execution statistics for this query only
		// (the capture wraps the sandbox context, not the whole ask, so
		// dashboard panel evaluations cannot overwrite it).
		var capture *promql.StatsCapture
		if analyzeFrom(ctx) {
			sctx, capture = promql.WithQueryStats(sctx)
		}
		v, execErr := c.exec.Execute(sctx, a.Query, c.evalTimeFor(genResp.Metrics))
		sp.SetError(execErr)
		sp.End()
		if execErr != nil {
			a.ExecErr = execErr
			a.ValueText = "execution failed: " + execErr.Error()
		} else {
			a.Value = v
			a.ValueText = promql.FormatValue(v)
			if capture != nil {
				if qs := capture.Stats(); qs != nil {
					a.AnalyzedPlan = qs.Render()
				}
			}
		}
	}

	// Annotate the answer when the generated query instantiates one of
	// the domain-specific database's bespoke function recipes (§3.1).
	if a.Query != "" {
		for _, fn := range c.db.FunctionsSnapshotTenant(tid) {
			if fn.Arity != len(genResp.Metrics) {
				continue
			}
			if expanded, err := fn.Expand(genResp.Metrics...); err == nil && expanded == a.Query {
				a.Function = fn.Name
				break
			}
		}
	}

	// 5. Dashboard generation for the relevant metrics.
	var known []*catalog.Metric
	for _, sm := range a.Metrics {
		if m, ok := c.db.LookupTenant(tid, sm.Name); ok {
			known = append(known, m)
		}
	}
	if len(known) > 0 {
		_, sp = obs.StartSpan(ctx, "dashboard")
		a.Dashboard = dashboard.ForMetrics("DIO: "+question, known)
		if sp.Recording() {
			sp.SetAttr("dashboard.title", a.Dashboard.Title)
			sp.SetAttr("dashboard.panels", len(a.Dashboard.Panels))
		}
		sp.End()
	}
	return a, nil
}

// accumulate folds one model response's usage into the answer and the
// self-metrics.
func (c *Copilot) accumulate(a *Answer, r llm.Response, kind string) {
	a.Usage.PromptTokens += r.Usage.PromptTokens
	a.Usage.CompletionTokens += r.Usage.CompletionTokens
	a.CostCents += r.CostCents
	if c.metrics != nil {
		c.metrics.promptTok.Add(float64(r.Usage.PromptTokens))
		c.metrics.complTok.Add(float64(r.Usage.CompletionTokens))
		c.metrics.costCents.Add(r.CostCents)
		c.metrics.llmCalls.With(kind).Inc()
	}
}

// RenderAnswer formats an answer for terminal display (the Figure 1b
// response surface, including the expert-assistance affordance).
func RenderAnswer(a *Answer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q: %s\n\n", a.Question)
	if len(a.Metrics) > 0 {
		b.WriteString("Relevant metrics:\n")
		for _, m := range a.Metrics {
			if m.Known {
				fmt.Fprintf(&b, "  - %s — %s\n", m.Name, m.Description)
			} else {
				fmt.Fprintf(&b, "  - %s (not in the domain-specific database)\n", m.Name)
			}
		}
		b.WriteByte('\n')
	}
	if a.Query != "" {
		fmt.Fprintf(&b, "Query:\n  %s\n", a.Query)
		if a.Function != "" {
			fmt.Fprintf(&b, "  (bespoke function: %s)\n", a.Function)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Answer:\n  %s\n\n", a.ValueText)
	if a.Dashboard != nil {
		fmt.Fprintf(&b, "Dashboard: %d panel(s) generated.\n", len(a.Dashboard.Panels))
	}
	fmt.Fprintf(&b, "Cost: %.2f cents (%d prompt + %d completion tokens)\n",
		a.CostCents, a.Usage.PromptTokens, a.Usage.CompletionTokens)
	b.WriteString("[👍] [👎] [🙋 request expert assistance]\n")
	return b.String()
}
