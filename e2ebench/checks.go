package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"dio/internal/core"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/servecache"
	"dio/internal/tenant"
	"dio/internal/tsdb"
)

// Correctness checks run after a phase, once writes have stopped. Each
// returns the problems it found; any problem fails the run.

// maxChecked bounds how many dashboards and cached answers a check
// re-derives.
const maxChecked = 24

// exTolerance is benchmark.Evaluator's numeric tolerance.
const exTolerance = 1e-6

// checkEX recomputes execution accuracy over the distinct questions asked
// in the phase: an answer is correct when its generated query, run at the
// reference instant, matches the reference query's result. A question
// whose ask failed counts as wrong.
func checkEX(ctx context.Context, srv *server, ops []*op) (float64, []string) {
	exec := sandbox.New(srv.db, sandbox.DefaultLimits())
	queries := make(map[*item]string)
	var order []*item
	for _, o := range ops {
		if o.kind != opAsk {
			continue
		}
		q, seen := queries[o.item]
		if !seen {
			order = append(order, o.item)
		}
		if q == "" && o.err == nil {
			q = o.query
		}
		queries[o.item] = q
	}
	if len(order) == 0 {
		return 0, []string{"no asks to score"}
	}
	var problems []string
	correct := 0
	for _, it := range order {
		ref, err := srv.evals[it.seed].Reference(ctx, it.Item)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		q := queries[it]
		if q == "" {
			continue
		}
		v, err := exec.Execute(ctx, q, srv.head)
		if err != nil {
			continue
		}
		if got := promql.Numeric(v); len(got) > 0 && promql.EqualResults(got, ref, exTolerance) {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(order)), problems
}

// checkDashboards re-renders panels over HTTP and compares each with a
// direct Executor.ExecuteRange over the same window. Panels over frozen
// data must also equal what the phase served.
func checkDashboards(ctx context.Context, d *loadgen, extra []string) []string {
	d.mu.Lock()
	var queries []string
	for q := range d.bodies {
		queries = append(queries, q)
	}
	d.mu.Unlock()
	sort.Strings(queries)
	if len(queries) > maxChecked {
		queries = queries[:maxChecked]
	}
	queries = append(queries, extra...)
	var problems []string
	for _, q := range d.changed {
		problems = append(problems, fmt.Sprintf("panel %q changed between renders of frozen data", q))
	}
	client := laneClient()
	defer client.CloseIdleConnections()
	end := time.Unix(d.srv.head.Unix(), 0)
	start := end.Add(-dashWindow)
	for _, q := range queries {
		body, err := get(client, d.panelURL(q))
		if err != nil {
			problems = append(problems, fmt.Sprintf("panel %q: %v", q, err))
			continue
		}
		if first, ok := d.bodies[q]; ok && !bytes.Equal(first, body) {
			problems = append(problems, fmt.Sprintf("panel %q: served result differs from the re-render", q))
		}
		m, err := d.srv.cp.Executor().ExecuteRange(ctx, q, start, end, dashStep)
		if err != nil {
			problems = append(problems, fmt.Sprintf("panel %q: direct ExecuteRange: %v", q, err))
			continue
		}
		if err := sameMatrix(body, m); err != nil {
			problems = append(problems, fmt.Sprintf("panel %q: %v", q, err))
		}
	}
	return problems
}

// sameMatrix compares a query_range response with a matrix in the API's
// wire form: labels, timestamps in seconds and values formatted 'g'.
func sameMatrix(body []byte, m promql.Matrix) error {
	var resp struct {
		Data struct {
			Result []struct {
				Metric map[string]string `json:"metric"`
				Values [][2]any          `json:"values"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	got := resp.Data.Result
	if len(got) != len(m) {
		return fmt.Errorf("%d series served, %d direct", len(got), len(m))
	}
	for i, s := range m {
		want := s.Labels.Map()
		if len(got[i].Metric) != len(want) {
			return fmt.Errorf("series %d labels %v, direct %v", i, got[i].Metric, want)
		}
		for k, v := range want {
			if got[i].Metric[k] != v {
				return fmt.Errorf("series %d labels %v, direct %v", i, got[i].Metric, want)
			}
		}
		if len(got[i].Values) != len(s.Samples) {
			return fmt.Errorf("series %d: %d points served, %d direct", i, len(got[i].Values), len(s.Samples))
		}
		for j, p := range s.Samples {
			t, _ := got[i].Values[j][0].(float64)
			v, _ := got[i].Values[j][1].(string)
			if t != float64(p.T)/1000 || v != strconv.FormatFloat(p.V, 'g', -1, 64) {
				return fmt.Errorf("series %d point %d: served [%v %v], direct [%v %v]",
					i, j, got[i].Values[j][0], got[i].Values[j][1], float64(p.T)/1000, p.V)
			}
		}
	}
	return nil
}

// checkWrites reads back every acknowledged push: each of its samples
// must be in the store with its exact value.
func checkWrites(srv *server, seed int64, ops []*op) []string {
	acked := make(map[int][]int) // group -> acknowledged rounds
	for _, o := range ops {
		if o.kind == opWrite && o.err == nil {
			acked[o.group] = append(acked[o.group], o.round)
		}
	}
	var problems []string
	from := rwStart(srv.head).UnixMilli() - 1
	for g, rounds := range acked {
		name, _ := tsdb.NewMatcher(tsdb.MatchEqual, tsdb.MetricNameLabel, groupMetric(g))
		site, _ := tsdb.NewMatcher(tsdb.MatchEqual, "site", groupSite(g))
		stored := make(map[string]map[int64]float64)
		for _, s := range srv.db.SelectRange([]*tsdb.Matcher{name, site}, from, 1<<62) {
			pts := make(map[int64]float64, len(s.Samples))
			for _, p := range s.Samples {
				pts[p.T] = p.V
			}
			stored[s.Labels.String()] = pts
		}
		missing := 0
		for _, r := range rounds {
			for _, ts := range rwBatch(seed, srv.head, g, r) {
				pts := stored[ts.Labels.String()]
				for _, p := range ts.Samples {
					if v, ok := pts[p.T]; !ok || v != p.V {
						missing++
					}
				}
			}
		}
		if missing > 0 {
			problems = append(problems, fmt.Sprintf("group %d: %d acknowledged samples not readable", g, missing))
		}
	}
	return problems
}

// checkCachedAnswers renders a sample of answers the phase served from
// the cache and compares each with a fresh, uncached pipeline run.
func checkCachedAnswers(ctx context.Context, srv *server, ops []*op) []string {
	type key struct{ tenant, question string }
	seen := make(map[key]bool)
	var problems []string
	for _, o := range ops {
		if len(seen) == maxChecked {
			break
		}
		k := key{o.tenant, o.question}
		if o.kind != opAsk || o.err != nil || o.cache != "hit" || seen[k] {
			continue
		}
		seen[k] = true
		tctx := ctx
		if o.tenant != "" {
			tctx = tenant.WithID(ctx, tenant.Normalize(o.tenant))
		}
		cached, st, err := srv.front.Do(tctx, o.question, false)
		if err != nil || st != servecache.StatusHit {
			problems = append(problems, fmt.Sprintf("tenant %s %q: cached answer gone (status %v, err %v)", o.tenant, o.question, st, err))
			continue
		}
		fresh, err := srv.cp.Ask(tctx, o.question)
		if err != nil {
			problems = append(problems, fmt.Sprintf("fresh ask %q: %v", o.question, err))
			continue
		}
		if core.RenderAnswer(cached) != core.RenderAnswer(fresh) {
			problems = append(problems, fmt.Sprintf("tenant %s %q: cached answer renders differently from a fresh ask", o.tenant, o.question))
		}
	}
	if len(seen) == 0 {
		problems = append(problems, "no cached answers to check")
	}
	return problems
}
