package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/dashboard"
	"dio/internal/httpapi"
	"dio/internal/ingest"
)

// loadgen sends one phase's ops to a server and keeps what the checks
// need from the responses.
type loadgen struct {
	srv  *server
	seed int64

	inflight    atomic.Int64
	maxInflight atomic.Int64

	mu     sync.Mutex
	bodies map[string][]byte // first response body per panel query
	// changed lists panel queries whose response differed from the first
	// one seen; on frozen data that is a serving error.
	changed []string
}

func newLoadgen(srv *server, seed int64) *loadgen {
	return &loadgen{srv: srv, seed: seed, bodies: make(map[string][]byte)}
}

// laneClient is one lane's connection: a keep-alive transport that never
// opens a second connection.
func laneClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// run serves every queue with its lanes. With start zero the ops are sent
// back to back (warm-up); otherwise each op waits for its due time after
// start, and late ops go as soon as a lane frees.
func (d *loadgen) run(queues [][]*op, lanes []int, start time.Time) {
	var wg sync.WaitGroup
	for qi, ops := range queues {
		var next atomic.Int64
		for l := 0; l < lanes[qi]; l++ {
			client := laneClient()
			wc := ingest.NewClient(d.srv.url, 30*time.Second)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer client.CloseIdleConnections()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(ops) {
						return
					}
					o := ops[k]
					due := start.Add(o.due)
					if start.IsZero() {
						due = time.Now()
					} else if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						o.idle, o.late = true, time.Since(due)
					}
					d.exec(client, wc, o, due)
				}
			}()
		}
	}
	wg.Wait()
}

// track counts one request in flight for the duration of fn.
func (d *loadgen) track(fn func() error) error {
	n := d.inflight.Add(1)
	for {
		m := d.maxInflight.Load()
		if n <= m || d.maxInflight.CompareAndSwap(m, n) {
			break
		}
	}
	defer d.inflight.Add(-1)
	return fn()
}

// exec sends one op; latencies count from due.
func (d *loadgen) exec(client *http.Client, wc *ingest.Client, o *op, due time.Time) {
	switch o.kind {
	case opAsk:
		var resp askResponse
		o.err = d.track(func() error { return d.ask(client, o, &resp) })
		o.askLat = time.Since(due)
		// An answer whose metrics are all unknown to the catalog carries no
		// dashboard; there is nothing to render.
		if o.err != nil || !o.render || resp.Dashboard == nil {
			return
		}
		queries := make([]string, len(resp.Dashboard.Panels))
		for i, p := range resp.Dashboard.Panels {
			queries[i] = p.Query
		}
		rendered := time.Now()
		o.err = d.render(client, queries, true)
		o.dashLat, o.panels = time.Since(rendered), len(queries)
	case opDash:
		queries := siteDashboard(o.site)
		o.err = d.render(client, queries, false)
		o.dashLat, o.panels = time.Since(due), len(queries)
	case opWrite:
		o.err = d.track(func() error {
			batch := rwBatch(d.seed, d.srv.head, o.group, o.round)
			res, err := wc.Push(context.Background(), batch)
			if err == nil && res.Appended != seriesPerRW*samplesPerRW {
				err = fmt.Errorf("write group %d round %d: %d of %d samples appended",
					o.group, o.round, res.Appended, seriesPerRW*samplesPerRW)
			}
			return err
		})
		o.writeLat = time.Since(due)
	}
}

// askResponse is the part of the ask reply the benchmark reads.
type askResponse struct {
	Query     string               `json:"query"`
	Dashboard *dashboard.Dashboard `json:"dashboard"`
}

func (d *loadgen) ask(client *http.Client, o *op, resp *askResponse) error {
	body, _ := json.Marshal(map[string]any{"question": o.question})
	req, err := http.NewRequest(http.MethodPost, d.srv.url+"/api/v1/ask", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.tenant != "" {
		req.Header.Set(httpapi.TenantHeader, o.tenant)
	}
	r, err := client.Do(req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("ask %q: %s: %s", o.question, r.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("ask %q: %w", o.question, err)
	}
	o.cache, o.query = r.Header.Get(httpapi.CacheHeader), resp.Query
	return nil
}

// panelURL is the query_range request for one panel over the last hour
// of the trace at one-minute steps.
func (d *loadgen) panelURL(query string) string {
	end := d.srv.head
	v := url.Values{}
	v.Set("query", query)
	v.Set("start", strconv.FormatInt(end.Add(-dashWindow).Unix(), 10))
	v.Set("end", strconv.FormatInt(end.Unix(), 10))
	v.Set("step", strconv.Itoa(int(dashStep/time.Second))+"s")
	return d.srv.url + "/api/v1/query_range?" + v.Encode()
}

// render fetches every panel of one dashboard in turn. frozen marks
// panels over data nothing writes during the run: their responses must
// not change between renders.
func (d *loadgen) render(client *http.Client, queries []string, frozen bool) error {
	for _, q := range queries {
		var body []byte
		err := d.track(func() error {
			var err error
			body, err = get(client, d.panelURL(q))
			return err
		})
		if err != nil {
			return fmt.Errorf("panel %q: %w", q, err)
		}
		if frozen {
			d.mu.Lock()
			if first, ok := d.bodies[q]; !ok {
				d.bodies[q] = body
			} else if !bytes.Equal(first, body) {
				d.changed = append(d.changed, q)
			}
			d.mu.Unlock()
		}
	}
	return nil
}

func get(client *http.Client, u string) ([]byte, error) {
	r, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", r.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
