package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/ingest"
	"dio/internal/tsdb"
)

// Every workload is an open loop: seeded Poisson arrivals per stream,
// merged into one schedule per queue, each queue served by its own lanes.
// A lane is one client connection with at most one request in flight, and
// the lanes of a run number lanesPerRun, so requests in flight never
// exceed it.
const lanesPerRun = 2

// Paper question set, tenants and the remote-write shape.
const (
	paperSeed    = 7                // the paper-sized question set dio-bench uses
	tenants      = 64               // operator-session tenants
	zipfS        = 1.2              // Zipf skew of questions and tenants
	seriesPerRW  = 64               // series in one remote-write push
	samplesPerRW = 64               // samples per series in one push
	rwGroups     = 64               // push groups: rwGroups*seriesPerRW written series
	rwSpacing    = 15 * time.Second // a scrape interval
	dashStep     = time.Minute
	dashWindow   = time.Hour
)

type opKind int

const (
	opAsk   opKind = iota // POST /api/v1/ask, then maybe render its dashboard
	opDash                // render a remote-write dashboard
	opWrite               // push one remote-write batch
)

// op is one scheduled request and, after the phase, its outcome.
type op struct {
	kind opKind
	due  time.Duration // offset from the phase start

	question string
	item     *item
	tenant   string
	render   bool          // opAsk: render the returned dashboard
	site     int           // opDash: which site's dashboard
	group    int           // opWrite: series group
	round    int           // opWrite: the group's push number
	cold     bool          // opAsk: a question no earlier request asked
	late     time.Duration // how late an idle lane sent it
	idle     bool          // the lane waited for the due time
	askLat   time.Duration
	dashLat  time.Duration
	writeLat time.Duration
	panels   int
	err      error
	cache    string // X-DIO-Cache of an ask
	query    string // generated PromQL of an ask
}

// item is one question with the seed that generated it, so its reference
// comes from that seed's evaluator.
type item struct {
	benchmark.Item
	seed int64
}

// stream is one Poisson arrival process feeding a queue.
type stream struct {
	rate float64 // arrivals per second
	make func(rng *rand.Rand) *op
}

// queue is one merged schedule and the lanes that serve it.
type queue struct {
	streams []stream
	lanes   int
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// queues builds the measured schedule's queues from the run's inputs.
	queues func(in *inputs, rng *rand.Rand) []queue
	// warm returns the warm-up ops, sent closed-loop before the phase.
	warm func(in *inputs, rng *rand.Rand) []*op
	// exOverWarm scores ex_pct over the warm-up's asks (the paper's
	// questions, each once) instead of the phase's: the phase repeats a
	// Zipf sample of them, whose distinct set the seed would move.
	exOverWarm bool
}

// inputs are the question sets every workload draws from.
type inputs struct {
	paper []*item // the paper's 200 questions
	cold  []*item // distinct questions across generation seeds, shuffled
	seeds []int64
}

// coldPoolSize is how many distinct generated questions the cold pool
// gathers: enough for a one-minute cold-ask phase at 60 asks/s.
const coldPoolSize = 1900

// newInputs generates the question sets. The cold pool is the first
// coldPoolSize distinct questions over generation seeds 1, 2, ...,
// in a fixed shuffled order.
func newInputs() (*inputs, error) {
	cat := catalog.Generate()
	in := &inputs{seeds: []int64{paperSeed}}
	paper, err := benchmark.Generate(cat, benchmark.DefaultSize, paperSeed)
	if err != nil {
		return nil, err
	}
	for _, it := range paper {
		in.paper = append(in.paper, &item{Item: it, seed: paperSeed})
	}
	seen := make(map[string]bool)
	for s := int64(1); len(in.cold) < coldPoolSize; s++ {
		if s > 100 {
			return nil, fmt.Errorf("only %d distinct questions in 100 generation seeds", len(in.cold))
		}
		items, err := benchmark.Generate(cat, benchmark.DefaultSize, s)
		if err != nil {
			return nil, err
		}
		used := false
		for _, it := range items {
			if !seen[it.Question] && len(in.cold) < coldPoolSize {
				seen[it.Question] = true
				in.cold = append(in.cold, &item{Item: it, seed: s})
				used = true
			}
		}
		if used && s != paperSeed {
			in.seeds = append(in.seeds, s)
		}
	}
	rng := rand.New(rand.NewSource(coldOrderSeed))
	rng.Shuffle(len(in.cold), func(i, j int) { in.cold[i], in.cold[j] = in.cold[j], in.cold[i] })
	return in, nil
}

// coldOrderSeed fixes the cold pool's order.
const coldOrderSeed = 11

// assignCold gives the cold asks among ops the pool's questions from
// index from on, one each, in an order rng shuffles. The set of questions
// is the same for every seed, so ex_pct and the questions' own cost do
// not move with it; only which question arrives when does.
func (in *inputs) assignCold(ops []*op, from int, rng *rand.Rand) (next int, err error) {
	var cold []*op
	for _, o := range ops {
		if o.cold {
			cold = append(cold, o)
		}
	}
	if from+len(cold) > len(in.cold) {
		return 0, fmt.Errorf("%d cold asks need more than the %d distinct questions", from+len(cold), len(in.cold))
	}
	perm := rng.Perm(len(cold))
	for i, o := range cold {
		o.item = in.cold[from+perm[i]]
		o.question = o.item.Question
	}
	return from + len(cold), nil
}

// zipf draws ranks 0..n-1 with skew zipfS.
func zipf(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// writer hands out remote-write pushes in group-major round-robin order:
// push k goes to group k%rwGroups as that group's round k/rwGroups.
type writer struct{ next int }

func (w *writer) op() *op {
	k := w.next
	w.next++
	return &op{kind: opWrite, group: k % rwGroups, round: k / rwGroups}
}

// writerStream posts remote-write pushes at rate.
func writerStream(rate float64) stream {
	w := &writer{}
	return stream{rate: rate, make: func(*rand.Rand) *op { return w.op() }}
}

var workloads = []workload{
	{
		name: "cold-ask",
		why:  "every question is new, so the answer and retrieval caches miss and embedding, vecstore, llm and sandbox do the work",
		queues: func(in *inputs, rng *rand.Rand) []queue {
			return []queue{{lanes: 2, streams: []stream{
				{rate: 15, make: func(*rand.Rand) *op { return &op{kind: opAsk, render: true, cold: true} }},
				writerStream(5),
			}}}
		},
		warm: func(in *inputs, rng *rand.Rand) []*op {
			ops := make([]*op, 40)
			for i := range ops {
				ops[i] = &op{kind: opAsk, render: true, cold: true}
			}
			return ops
		},
	},
	{
		name: "operator-session",
		why:  "Zipf-repeated paper questions from 64 tenants, each rendering its dashboard: the tenant cache, gate and range queries work, retrieval barely",
		queues: func(in *inputs, rng *rand.Rand) []queue {
			q, t := zipf(rng, len(in.paper)), zipf(rng, tenants)
			return []queue{{lanes: 2, streams: []stream{
				{rate: 50, make: func(*rand.Rand) *op {
					it := in.paper[q()]
					return &op{kind: opAsk, item: it, question: it.Question, tenant: tenantName(t()), render: true}
				}},
				writerStream(5),
			}}}
		},
		// Every paper question once, then 2000 sessions' worth of the
		// measured Zipf mix, so the popular tenant-question pairs are
		// cached before the phase.
		warm: func(in *inputs, rng *rand.Rand) []*op {
			ops := paperOnce(in)
			q, t := zipf(rng, len(in.paper)), zipf(rng, tenants)
			for i := 0; i < 2000; i++ {
				it := in.paper[q()]
				ops = append(ops, &op{kind: opAsk, item: it, question: it.Question, tenant: tenantName(t())})
			}
			return ops
		},
		exOverWarm: true,
	},
	{
		name: "ingest-query",
		why:  "one connection streams remote writes into the WAL while the other renders dashboards over the series being written and asks cached questions",
		queues: func(in *inputs, rng *rand.Rand) []queue {
			q := zipf(rng, len(in.paper))
			return []queue{{lanes: 1, streams: []stream{writerStream(12)}}, {lanes: 1, streams: []stream{
				{rate: 10, make: func(r *rand.Rand) *op { return &op{kind: opDash, site: r.Intn(rwSites)} }},
				{rate: 20, make: func(*rand.Rand) *op {
					it := in.paper[q()]
					return &op{kind: opAsk, item: it, question: it.Question}
				}},
			}}}
		},
		warm: func(in *inputs, rng *rand.Rand) []*op {
			ops := paperOnce(in)
			for site := 0; site < rwSites; site++ {
				ops = append(ops, &op{kind: opDash, site: site})
			}
			return ops
		},
		exOverWarm: true,
	},
}

// paperOnce asks each of the paper's questions once.
func paperOnce(in *inputs) []*op {
	ops := make([]*op, len(in.paper))
	for i, it := range in.paper {
		ops[i] = &op{kind: opAsk, item: it, question: it.Question}
	}
	return ops
}

func tenantName(i int) string { return fmt.Sprintf("op-%02d", i) }

// arrivalSeed seeds every stream's arrival times. They do not follow the
// run seed: every run of a workload offers the same arrival pattern, and
// the seed picks what arrives (questions, tenants, sites). Run-to-run
// spread then measures the system, not which bursts a seed happened to
// draw.
const arrivalSeed = 20231

// schedule draws each stream's Poisson arrivals over the phase and merges
// them by due time. Each stream has its own generators, so one stream's
// draws never shift another's.
func schedule(q queue, qi int, seed int64, phase time.Duration) []*op {
	var ops []*op
	for si, s := range q.streams {
		arr := rand.New(rand.NewSource(arrivalSeed + int64(qi)*100 + int64(si)))
		gen := rand.New(rand.NewSource(seed*1000 + int64(qi)*100 + int64(si)))
		t := 0.0
		for {
			t += arr.ExpFloat64() / s.rate
			due := time.Duration(t * float64(time.Second))
			if due >= phase {
				break
			}
			o := s.make(gen)
			o.due = due
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// The remote-write series: rwGroups groups of seriesPerRW cells. Group g
// holds one of four metrics for one site, so each site has a full set of
// four metrics over the same 64 cells, and a site dashboard reads exactly
// the four groups written for it.
var rwMetrics = [4]string{
	"rwbench_cell_ul_bytes_total", "rwbench_cell_dl_bytes_total",
	"rwbench_cell_prb_used", "rwbench_cell_rrc_connected",
}

const rwSites = rwGroups / len(rwMetrics)

func groupMetric(g int) string { return rwMetrics[g%len(rwMetrics)] }
func groupSite(g int) string   { return fmt.Sprintf("s%02d", g/len(rwMetrics)) }

// rwStart is the first written timestamp: an hour before the trace head,
// so the written data sits inside every site dashboard's window and never
// moves the TSDB head the answer cache keys on.
func rwStart(head time.Time) time.Time { return head.Add(-dashWindow) }

// rwLabels holds the label set of every written series, built once so
// the writer's own allocations stay out of the measured CPU and heap.
var rwLabels = func() (ls [rwGroups][seriesPerRW]tsdb.Labels) {
	for g := range ls {
		for c := range ls[g] {
			ls[g][c] = tsdb.FromMap(map[string]string{
				"__name__": groupMetric(g), "site": groupSite(g), "cell": fmt.Sprintf("c%02d", c),
			})
		}
	}
	return ls
}()

// rwValue is the deterministic value of cell c of group g at sample index
// k (k counts samples from the series' first): counters grow by a
// per-cell rate, gauges follow a per-cell wave.
func rwValue(seed int64, g, c, k int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(g*seriesPerRW+c)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	base := float64(h%1000) + 100
	if g%len(rwMetrics) < 2 {
		return base * float64(k+1)
	}
	return base/10 + 50*math.Sin(float64(k)/60+float64(c))
}

// rwBatch is the push for one group's round: seriesPerRW series with
// samplesPerRW consecutive samples each.
func rwBatch(seed int64, head time.Time, g, round int) []ingest.TimeSeries {
	start := rwStart(head)
	batch := make([]ingest.TimeSeries, seriesPerRW)
	for c := range batch {
		samples := make([]tsdb.Sample, samplesPerRW)
		for i := range samples {
			k := round*samplesPerRW + i
			samples[i] = tsdb.Sample{
				T: start.Add(time.Duration(k) * rwSpacing).UnixMilli(),
				V: rwValue(seed, g, c, k),
			}
		}
		batch[c] = ingest.TimeSeries{Labels: rwLabels[g][c], Samples: samples}
	}
	return batch
}

// siteDashboard is the four panels of one site's remote-write dashboard.
func siteDashboard(site int) []string {
	sel := fmt.Sprintf(`{site="s%02d"}`, site)
	return []string{
		"sum(rate(" + rwMetrics[0] + sel + "[5m]))",
		"sum(rate(" + rwMetrics[1] + sel + "[5m]))",
		"avg(" + rwMetrics[2] + sel + ")",
		"max(" + rwMetrics[3] + sel + ")",
	}
}
