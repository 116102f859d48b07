package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/testenv"
)

// newServer builds the handler over the shared fixture.
func newServer(t *testing.T) http.Handler {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	tracker := feedback.NewTracker([]string{"alice"}, func() time.Time {
		return time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	})
	feedback.WireCopilot(tracker, cp)
	return httpapi.New(cp, tracker, nil)
}

func do(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(data)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rdr)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out := make(map[string]any)
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, w.Body.String())
	}
	return w, out
}

func TestHealthz(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "GET", "/healthz", nil)
	if w.Code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", w.Code, out)
	}
}

func TestAsk(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "POST", "/api/v1/ask", map[string]string{"question": "How many PDU sessions are currently active?"})
	if w.Code != 200 {
		t.Fatalf("ask = %d %v", w.Code, out)
	}
	if out["query"] == "" || out["answer"] == "" {
		t.Fatalf("incomplete answer: %v", out)
	}
	if !strings.Contains(out["query"].(string), "smfsm_pdu_sessions_active") {
		t.Errorf("query = %v", out["query"])
	}
	if out["cost_cents"].(float64) <= 0 {
		t.Error("no cost accounting")
	}
	metrics := out["metrics"].([]any)
	if len(metrics) == 0 {
		t.Error("no metrics in answer")
	}
}

func TestAskValidation(t *testing.T) {
	h := newServer(t)
	if w, _ := do(t, h, "POST", "/api/v1/ask", map[string]string{"question": "  "}); w.Code != 400 {
		t.Errorf("blank question = %d", w.Code)
	}
	req := httptest.NewRequest("POST", "/api/v1/ask", strings.NewReader("{"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 400 {
		t.Errorf("bad JSON = %d", w.Code)
	}
	// Wrong method.
	req = httptest.NewRequest("GET", "/api/v1/ask", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 405 {
		t.Errorf("GET ask = %d, want 405", w.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "GET", "/api/v1/query?query="+escape("sum(smfsm_pdu_sessions_active)"), nil)
	if w.Code != 200 {
		t.Fatalf("query = %d %v", w.Code, out)
	}
	data := out["data"].(map[string]any)
	if data["resultType"] != "vector" {
		t.Errorf("resultType = %v", data["resultType"])
	}
	result := data["result"].([]any)
	if len(result) != 1 {
		t.Fatalf("result = %v", result)
	}
}

func TestQueryErrors(t *testing.T) {
	h := newServer(t)
	if w, _ := do(t, h, "GET", "/api/v1/query", nil); w.Code != 400 {
		t.Errorf("missing query = %d", w.Code)
	}
	if w, _ := do(t, h, "GET", "/api/v1/query?query="+escape("sum("), nil); w.Code != 422 {
		t.Errorf("parse error = %d", w.Code)
	}
	// The sandbox rejects unselective scans with 403.
	if w, _ := do(t, h, "GET", "/api/v1/query?query="+escape(`{instance="pod-0"}`), nil); w.Code != 403 {
		t.Errorf("unselective query = %d, want 403", w.Code)
	}
	if w, _ := do(t, h, "GET", "/api/v1/query?query=up&time=notatime", nil); w.Code != 400 {
		t.Errorf("bad time = %d", w.Code)
	}
}

func TestQueryRangeEndpoint(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "GET", "/api/v1/query_range?query="+escape("sum(smfsm_pdu_sessions_active)")+"&step=5m", nil)
	if w.Code != 200 {
		t.Fatalf("query_range = %d %v", w.Code, out)
	}
	data := out["data"].(map[string]any)
	if data["resultType"] != "matrix" {
		t.Errorf("resultType = %v", data["resultType"])
	}
	series := data["result"].([]any)
	if len(series) != 1 {
		t.Fatalf("series = %v", series)
	}
	values := series[0].(map[string]any)["values"].([]any)
	if len(values) < 2 {
		t.Errorf("too few points: %d", len(values))
	}
	if w, _ := do(t, h, "GET", "/api/v1/query_range?query=up&step=bogus", nil); w.Code != 400 {
		t.Errorf("bad step = %d", w.Code)
	}
}

func TestMetricsSearch(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "GET", "/api/v1/metrics?q=initial_registration&limit=5", nil)
	if w.Code != 200 {
		t.Fatalf("metrics = %d", w.Code)
	}
	hits := out["metrics"].([]any)
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	first := hits[0].(map[string]any)
	if !strings.Contains(first["name"].(string), "initial_registration") {
		t.Errorf("first hit = %v", first)
	}
	if first["description"] == "" {
		t.Error("hit has no description")
	}
}

func TestFeedbackFlow(t *testing.T) {
	h := newServer(t)
	// Open an issue via the raised-hand endpoint.
	w, out := do(t, h, "POST", "/api/v1/feedback", map[string]string{"question": "What is the flux capacitor saturation?"})
	if w.Code != 201 {
		t.Fatalf("open = %d %v", w.Code, out)
	}
	issue := out["issue"].(map[string]any)
	id := int(issue["id"].(float64))
	if issue["state"].(float64) != 0 {
		t.Errorf("state = %v", issue["state"])
	}

	// List shows it.
	_, out = do(t, h, "GET", "/api/v1/feedback", nil)
	if n := len(out["issues"].([]any)); n != 1 {
		t.Fatalf("issue list = %d", n)
	}

	// Non-expert resolution → 403.
	w, _ = do(t, h, "POST", fmt.Sprintf("/api/v1/feedback/%d/resolve", id), map[string]any{
		"expert": "mallory", "metric_name": "m", "description": "d",
	})
	if w.Code != 403 {
		t.Errorf("non-expert resolve = %d", w.Code)
	}

	// Expert resolution → 200 and attributed.
	w, out = do(t, h, "POST", fmt.Sprintf("/api/v1/feedback/%d/resolve", id), map[string]any{
		"expert": "alice", "metric_name": "amfcc_initial_registration_attempt",
		"description": "The flux capacitor saturation is the total of initial registration attempts.",
	})
	if w.Code != 200 {
		t.Fatalf("resolve = %d %v", w.Code, out)
	}
	if out["issue"].(map[string]any)["expert"] != "alice" {
		t.Errorf("attribution missing: %v", out["issue"])
	}

	// Unknown issue → 404.
	w, _ = do(t, h, "POST", "/api/v1/feedback/999/resolve", map[string]any{
		"expert": "alice", "metric_name": "m", "description": "d",
	})
	if w.Code != 404 {
		t.Errorf("unknown issue = %d", w.Code)
	}
	// Bad id → 400.
	w, _ = do(t, h, "POST", "/api/v1/feedback/abc/resolve", map[string]any{})
	if w.Code != 400 {
		t.Errorf("bad id = %d", w.Code)
	}
}

func escape(q string) string {
	r := strings.NewReplacer(" ", "%20", "{", "%7B", "}", "%7D", `"`, "%22", "=", "%3D", "[", "%5B", "]", "%5D", "(", "%28", ")", "%29")
	return r.Replace(q)
}

func TestProposalVotingFlow(t *testing.T) {
	h := newServer(t)
	// Open an issue.
	w, out := do(t, h, "POST", "/api/v1/feedback", map[string]string{"question": "What is the warp core utilisation?"})
	if w.Code != 201 {
		t.Fatalf("open = %d %v", w.Code, out)
	}
	id := int(out["issue"].(map[string]any)["id"].(float64))

	// A community member proposes a resolution.
	w, out = do(t, h, "POST", fmt.Sprintf("/api/v1/feedback/%d/propose", id), map[string]any{
		"author": "community.user", "metric_name": "smf_system_cpu_usage_percent",
		"description": "Warp core utilisation is the SMF CPU utilisation.",
	})
	if w.Code != 201 {
		t.Fatalf("propose = %d %v", w.Code, out)
	}
	pid := int(out["proposal"].(map[string]any)["id"].(float64))

	// Listing shows it.
	_, out = do(t, h, "GET", fmt.Sprintf("/api/v1/proposals?issue=%d", id), nil)
	if n := len(out["proposals"].([]any)); n != 1 {
		t.Fatalf("proposal list = %d", n)
	}

	// Non-expert vote → 403.
	w, _ = do(t, h, "POST", fmt.Sprintf("/api/v1/proposals/%d/vote", pid), map[string]any{"expert": "mallory", "up": true})
	if w.Code != 403 {
		t.Errorf("non-expert vote = %d", w.Code)
	}
	// One expert vote (threshold is 2 → still pending). Note newServer
	// registers a single expert, so HTTP acceptance is covered by the
	// package-level feedback tests; here we check wiring and status codes.
	w, _ = do(t, h, "POST", fmt.Sprintf("/api/v1/proposals/%d/vote", pid), map[string]any{"expert": "alice", "up": true})
	if w.Code != 200 {
		t.Errorf("expert vote = %d", w.Code)
	}
	// Unknown proposal → 404.
	w, _ = do(t, h, "POST", "/api/v1/proposals/999/vote", map[string]any{"expert": "alice", "up": true})
	if w.Code != 404 {
		t.Errorf("unknown proposal vote = %d", w.Code)
	}
	// Bad issue id on propose → 400; unknown issue → 404.
	w, _ = do(t, h, "POST", "/api/v1/feedback/abc/propose", map[string]any{})
	if w.Code != 400 {
		t.Errorf("bad propose id = %d", w.Code)
	}
	w, _ = do(t, h, "POST", "/api/v1/feedback/999/propose", map[string]any{
		"author": "x", "metric_name": "m", "description": "d",
	})
	if w.Code != 404 {
		t.Errorf("unknown propose issue = %d", w.Code)
	}
}

func TestAuditEndpoint(t *testing.T) {
	h := newServer(t)
	// Run a query through the service, then read the audit trail.
	do(t, h, "GET", "/api/v1/query?query="+escape("sum(smfsm_pdu_sessions_active)"), nil)
	w, out := do(t, h, "GET", "/api/v1/audit", nil)
	if w.Code != 200 {
		t.Fatalf("audit = %d", w.Code)
	}
	entries := out["entries"].([]any)
	if len(entries) == 0 {
		t.Fatal("audit trail empty after a query")
	}
	last := entries[len(entries)-1].(map[string]any)
	if last["outcome"] != "executed" {
		t.Errorf("last audit outcome = %v", last["outcome"])
	}
	if !strings.Contains(last["query"].(string), "smfsm_pdu_sessions_active") {
		t.Errorf("audited query = %v", last["query"])
	}
}

func queryEscape(q string) string { return url.QueryEscape(q) }

func TestDebugPlan(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "GET", "/debug/plan?query="+queryEscape("sum by (instance)(rate(amfcc_n1_auth_request[5m]))"), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", w.Code, w.Body.String())
	}
	plan, _ := out["plan"].(string)
	for _, want := range []string{"plan for:", "range-hints", "window [5m] scan #0"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}

	w, _ = do(t, h, "GET", "/debug/plan", nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("missing query: status = %d", w.Code)
	}
	w, _ = do(t, h, "GET", "/debug/plan?query="+queryEscape("sum by ("), nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad query: status = %d", w.Code)
	}
}

// TestOversizedBodies: every JSON POST route answers an oversized body —
// and /api/v1/ask and /api/v1/feedback an over-long question — with 413
// and the typed error envelope, and the server keeps answering the next
// request on the same client.
func TestOversizedBodies(t *testing.T) {
	srv := httptest.NewServer(newServer(t))
	defer srv.Close()
	huge := `{"question":"` + strings.Repeat("a", 2<<20) + `"}`
	long := `{"question":"` + strings.Repeat("a", 5<<10) + `"}`
	for _, c := range []struct{ path, body string }{
		{"/api/v1/ask", huge},
		{"/api/v1/ask", long},
		{"/api/v1/feedback", huge},
		{"/api/v1/feedback", long},
		{"/api/v1/feedback/1/resolve", huge},
		{"/api/v1/feedback/1/propose", huge},
		{"/api/v1/proposals/1/vote", huge},
	} {
		resp, err := srv.Client().Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s (%d bytes): %v", c.path, len(c.body), err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || out["status"] != "error" || out["error"] == "" {
			t.Errorf("%s (%d bytes) = %d %v (decode err %v), want 413 with an error envelope",
				c.path, len(c.body), resp.StatusCode, out, err)
		}
		next, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("after %s: %v", c.path, err)
		}
		next.Body.Close()
		if next.StatusCode != http.StatusOK {
			t.Errorf("after %s: healthz = %d", c.path, next.StatusCode)
		}
	}
}
