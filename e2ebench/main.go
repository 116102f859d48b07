// Command e2ebench is DIO's end-to-end benchmark. It assembles dio-server
// in-process from its public constructors at dio-server's default
// settings, serves it on a loopback listener, and drives one workload
// through the HTTP API as an open loop with seeded Poisson arrivals and
// at most two requests in flight.
//
//	go run . -workload cold-ask -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it builds the server twice (reporting the median
// set-up time), runs the workload on the last build and prints the
// end-to-end metrics. With -trace 1 it runs the workload on an untraced
// server and again on one whose layers are wrapped in timing decorators,
// and prints the per-layer metrics of the traced run. Every run ends
// with correctness checks; the last line of standard output is one JSON
// object with the outcome and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// setups is how many times a -trace 0 run builds the server; setup_s is
// the median.
const setups = 2

// maxLateMS is the generator lateness (p99, ms) past which a phase no
// longer measures its offered arrival rate.
const maxLateMS = 50

func main() {
	name := flag.String("workload", "", "workload: cold-ask, operator-session or ingest-query")
	seed := flag.Int64("seed", 1, "workload seed: which questions, tenants and sites arrive, and in what order")
	seconds := flag.Int("seconds", 10, "measured phase length in seconds")
	trace := flag.Int("trace", 0, "1 adds a run with timing decorators and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the servers' WAL and checkpoints")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, phase time.Duration, traced bool, workdir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if phase <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	in, err := newInputs()
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("seed %d  phase %s  lanes %d  nproc %d\n", seed, phase, lanesPerRun, runtime.NumCPU())
	fmt.Printf("server: %s\n", serverSettings())
	b := &bench{w: w, in: in, seed: seed, phase: phase, workdir: workdir}

	if !traced {
		var setupS []float64
		var srv *server
		for i := 0; i < setups; i++ {
			if srv != nil {
				srv.stop()
				runtime.GC()
			}
			start := time.Now()
			if srv, err = startServer(b.dir(i), nil, in.seeds); err != nil {
				return err
			}
			setupS = append(setupS, time.Since(start).Seconds())
		}
		res, err := b.phaseOn(srv)
		srv.stop()
		if err != nil {
			return err
		}
		res.e2e["setup_s"] = median(setupS)
		fmt.Printf("setup_s %.3f (median of %v)\n", res.e2e["setup_s"], roundAll(setupS))
		res.printE2E()
		return emit(res.ok(), res.attempted, res.failed, res.e2e, e2eUnits)
	}

	plain, err := b.fresh(nil)
	if err != nil {
		return err
	}
	withLayers, err := b.fresh(&layers{})
	if err != nil {
		return err
	}
	withLayers.layer["gen.trace_overhead_pct"] = 100 * (ratio(withLayers.e2e["cpu_ms_per_op"], plain.e2e["cpu_ms_per_op"]) - 1)
	if plain.e2e["ex_pct"] != withLayers.e2e["ex_pct"] {
		withLayers.problems = append(withLayers.problems, fmt.Sprintf("ex_pct differs between the untraced (%.4f) and traced (%.4f) runs of one seed",
			plain.e2e["ex_pct"], withLayers.e2e["ex_pct"]))
	}
	fmt.Println("untraced run:")
	plain.printE2E()
	fmt.Println("traced run:")
	withLayers.printE2E()
	printOverhead(plain, withLayers)
	withLayers.printLayers()
	plainOK, tracedOK := plain.ok(), withLayers.ok()
	return emit(plainOK && tracedOK, plain.attempted+withLayers.attempted, plain.failed+withLayers.failed, withLayers.layer, layerUnits)
}

// bench is one run's fixed inputs.
type bench struct {
	w       *workload
	in      *inputs
	seed    int64
	phase   time.Duration
	workdir string
	servers int
}

// dir is the data directory of the run's i-th server.
func (b *bench) dir(i int) string {
	return filepath.Join(b.workdir, fmt.Sprintf("e2e-%d-%d", os.Getpid(), i))
}

// fresh builds one server and runs the phase on it.
func (b *bench) fresh(lay *layers) (*result, error) {
	b.servers++
	runtime.GC()
	srv, err := startServer(b.dir(b.servers), lay, b.in.seeds)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	return b.phaseOn(srv)
}

// result is one phase's outcome.
type result struct {
	e2e, layer        map[string]float64
	attempted, failed int
	problems          []string
	counts            map[string]int // successful ops by kind: ask, dashboard, write
	panels            int
	lateP99           float64    // generator lateness, ms
	tail              [3]float64 // gc pause p99, sched latency p99, gate wait p99 (ms)
}

func (r *result) ok() bool {
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	return len(r.problems) == 0
}

// plan builds the run's warm-up ops and the phase's queues.
func (b *bench) plan() (warm []*op, queues [][]*op, lanes []int, err error) {
	warm = b.w.warm(b.in, rand.New(rand.NewSource(b.seed*7919+1)))
	total := 0
	for i, q := range b.w.queues(b.in, rand.New(rand.NewSource(b.seed*7919+2))) {
		queues = append(queues, schedule(q, i, b.seed, b.phase))
		lanes = append(lanes, q.lanes)
		total += q.lanes
	}
	if total > lanesPerRun {
		return nil, nil, nil, fmt.Errorf("workload uses %d lanes, more than %d", total, lanesPerRun)
	}
	next, err := b.in.assignCold(warm, 0, rand.New(rand.NewSource(0)))
	for _, q := range queues {
		if err == nil {
			next, err = b.in.assignCold(q, next, rand.New(rand.NewSource(b.seed*7919+3)))
		}
	}
	return warm, queues, lanes, err
}

// snapshot is everything a phase diffs, read at one instant.
type snapshot struct {
	reg regSnap
	rt  runtimeSnap
	cpu time.Duration
	lay layerSnap
}

func takeSnapshot(srv *server) snapshot {
	s := snapshot{reg: snapRegistry(srv.reg), rt: readRuntime(), cpu: cpuTime()}
	if srv.lay != nil {
		s.lay = srv.lay.snap()
	}
	return s
}

// phaseOn warms the server, runs the measured open-loop phase and checks
// the outcome.
func (b *bench) phaseOn(srv *server) (*result, error) {
	warm, queues, lanes, err := b.plan()
	if err != nil {
		return nil, err
	}
	d := newLoadgen(srv, b.seed)
	warmStart := time.Now()
	d.run([][]*op{warm}, []int{lanesPerRun}, time.Time{})
	fmt.Printf("warm-up: %d ops in %.2fs\n", len(warm), time.Since(warmStart).Seconds())
	d.bodies, d.changed = make(map[string][]byte), nil

	runtime.GC()
	if srv.lay != nil {
		srv.lay.takeGateWaits()
	}
	before := takeSnapshot(srv)
	peak := watchHeap()
	d.run(queues, lanes, time.Now().Add(20*time.Millisecond))
	after := takeSnapshot(srv)
	peakHeap := peak()
	var gateWaits []time.Duration
	if srv.lay != nil {
		gateWaits = srv.lay.takeGateWaits()
	}

	var ops []*op
	for _, q := range queues {
		ops = append(ops, q...)
	}
	res := summarize(ops)
	res.e2e["cpu_ms_per_op"] = ratio(ms(after.cpu-before.cpu), float64(res.attempted-res.failed))
	res.e2e["peak_heap_mb"] = float64(peakHeap) / 1e6
	scored := ops
	if b.w.exOverWarm {
		scored = warm
	}
	res.e2e["ex_pct"], res.problems = checkEX(context.Background(), srv, scored)
	for _, o := range warm {
		if o.err != nil {
			res.problems = append(res.problems, "warm-up: "+o.err.Error())
		}
	}
	res.problems = append(res.problems, b.check(srv, d, warm, ops, before, after, res.lateP99)...)

	// Tail attribution: what the runtime and the gate added over the phase.
	res.tail = [3]float64{
		histP99MS(before.rt.gcPauses, after.rt.gcPauses),
		histP99MS(before.rt.schedLat, after.rt.schedLat),
		gateWaitP99MS(before.reg, after.reg),
	}
	if srv.lay != nil {
		l := layerMetrics(before.lay, after.lay, before.reg, after.reg)
		l["servecache.gate_wait_ms"] = percentileMS(gateWaits, 0.99)
		l["runtime.gc_pause_p99_ms"], l["runtime.sched_latency_p99_ms"] = res.tail[0], res.tail[1]
		l["runtime.gc_cycles"] = float64(after.rt.gcCycles - before.rt.gcCycles)
		l["gen.late_p99_ms"] = res.lateP99
		l["dashboard.panels_per_dashboard"] = ratio(float64(res.panels), float64(res.counts["dashboard"]))
		res.layer = l
	}
	fmt.Printf("phase: %d ops (%d asks, %d dashboards, %d writes), %d failed, generator late p99 %.3f ms, max in flight %d\n",
		res.attempted, res.counts["ask"], res.counts["dashboard"], res.counts["write"], res.failed,
		res.lateP99, d.maxInflight.Load())
	return res, nil
}

// summarize computes the latency metrics of a phase's ops. Failed ops
// count as attempted and failed, and their latencies are left out.
func summarize(ops []*op) *result {
	res := &result{e2e: map[string]float64{}, counts: map[string]int{}}
	lat := map[string][]time.Duration{}
	var late []time.Duration
	for _, o := range ops {
		res.attempted++
		if o.err != nil {
			res.failed++
			if res.failed <= 5 {
				fmt.Println("op failed:", o.err)
			}
			continue
		}
		if o.idle {
			late = append(late, o.late)
		}
		switch o.kind {
		case opAsk:
			lat["ask"] = append(lat["ask"], o.askLat)
		case opWrite:
			lat["write"] = append(lat["write"], o.writeLat)
		}
		if o.panels > 0 {
			lat["dashboard"] = append(lat["dashboard"], o.dashLat)
			res.panels += o.panels
		}
	}
	for _, kind := range []string{"ask", "dashboard", "write"} {
		res.counts[kind] = len(lat[kind])
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
			res.e2e[kind+"_"+p.name+"_ms"] = percentileMS(lat[kind], p.q)
		}
	}
	res.e2e["failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	res.lateP99 = percentileMS(late, 0.99)
	return res
}

// check runs the validity guards and the correctness checks that apply
// to the ops the phase sent.
func (b *bench) check(srv *server, d *loadgen, warm, ops []*op, before, after snapshot, lateP99 float64) []string {
	var problems []string
	if lateP99 > maxLateMS {
		problems = append(problems, fmt.Sprintf("invalid phase: generator late by %.1f ms at p99", lateP99))
	}
	if n := d.maxInflight.Load(); n > lanesPerRun {
		problems = append(problems, fmt.Sprintf("%d requests in flight, more than %d", n, lanesPerRun))
	}
	var cold, hits, dashes bool
	coldServed := 0
	for _, o := range slices.Concat(warm, ops) {
		cold = cold || o.cold
		hits = hits || (o.kind == opAsk && o.cache == "hit")
		dashes = dashes || o.kind == opDash
		if o.cold && o.err == nil && o.cache != "miss" {
			coldServed++
		}
	}
	if coldServed > 0 {
		problems = append(problems, fmt.Sprintf("%d cold questions were not answer-cache misses", coldServed))
	}
	if cold {
		answer := delta(before.reg, after.reg, "dio_cache_requests_total,answer,hit")
		retrieval := delta(before.reg, after.reg, "dio_cache_requests_total,retrieval,hit")
		if answer != 0 || retrieval != 0 {
			problems = append(problems, fmt.Sprintf("cold asks hit the caches: %v answer, %v retrieval", answer, retrieval))
		}
	}
	ctx := context.Background()
	var sites []string
	if dashes {
		for site := 0; site < 4; site++ {
			sites = append(sites, siteDashboard(site)...)
		}
	}
	problems = append(problems, checkDashboards(ctx, d, sites)...)
	problems = append(problems, checkWrites(srv, b.seed, ops)...)
	if hits {
		problems = append(problems, checkCachedAnswers(ctx, srv, ops)...)
	}
	return problems
}

// watchHeap samples the heap every 10ms until the returned func is
// called, which returns the largest sample.
func watchHeap() func() uint64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapBytes(); h > peak {
				peak = h
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// End-to-end metrics in output order, with units. These are the gated
// figures: those steady enough from run to run, on a shared 2-vCPU host,
// to show a regression within their bound. Asks and dashboards are gated
// at p50: their p90 moves with the host's CPU steal. Writes are gated at
// p90: a write waits for the 25ms group commit, so its p50 falls wherever
// the commit ticker's phase lands among the arrivals, while its p90 sits
// near the window's end.
var e2eUnits = []metricUnit{
	{"setup_s", "s"},
	{"ask_p50_ms", "ms"},
	{"dashboard_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"ex_pct", "%"},
	{"peak_heap_mb", "MB"},
}

// shownUnits are printed beside the gated metrics but not reported in the
// result line.
var shownUnits = []metricUnit{
	{"ask_p90_ms", "ms"}, {"ask_p99_ms", "ms"},
	{"dashboard_p90_ms", "ms"}, {"dashboard_p99_ms", "ms"},
	{"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
}

type metricUnit struct{ name, unit string }

func (r *result) printE2E() {
	for _, m := range e2eUnits {
		if v, ok := r.e2e[m.name]; ok {
			fmt.Printf("  %-18s %12.4f %s\n", m.name, v, m.unit)
		}
	}
	fmt.Println("  printed, not gated:")
	for _, m := range shownUnits {
		fmt.Printf("  %-18s %12.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	fmt.Printf("  samples: %d asks, %d dashboards, %d writes; %d of %d ops failed\n",
		r.counts["ask"], r.counts["dashboard"], r.counts["write"], r.failed, r.attempted)
	fmt.Printf("  tail: ask_p99_ms %.3f beside gc pause p99 %.3f ms, scheduling latency p99 %.3f ms, gate wait p99 <= %.0f ms\n",
		r.e2e["ask_p99_ms"], r.tail[0], r.tail[1], r.tail[2])
}

// printOverhead sets the traced run's end-to-end figures beside the
// untraced run's; the difference is the decorators' cost.
func printOverhead(plain, traced *result) {
	fmt.Println("decorator overhead (traced vs untraced, same seed and schedule):")
	for _, m := range slices.Concat(e2eUnits, shownUnits) {
		a, ok := plain.e2e[m.name]
		if !ok {
			continue
		}
		c := traced.e2e[m.name]
		if a == 0 {
			// failed_ratio in a healthy run: no base to take a share of.
			fmt.Printf("  %-18s %12.4f %12.4f\n", m.name, a, c)
			continue
		}
		fmt.Printf("  %-18s %12.4f %12.4f %+8.1f%%\n", m.name, a, c, 100*(c/a-1))
	}
}

// emit prints the result line.
func emit(correct bool, attempted, failed int, values map[string]float64, units []metricUnit) error {
	metrics := make(map[string]any, len(units))
	for _, m := range units {
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
