package promql

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// TestExplainTree pins the multi-line explain rendering: canonical query,
// optimizer pass annotations, and the operator tree with scan hints.
func TestExplainTree(t *testing.T) {
	db, _ := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())

	out, err := eng.Explain("sum by (instance) (rate(amfcc_n1_auth_request[5m]))")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"plan for: sum by (instance)(rate(amfcc_n1_auth_request[5m]))",
		"selector-dedup(1 scans, 0 shared)",
		"pushdown(1 matchers -> 1 SelectBatch)",
		"range-hints",
		"agg sum by (instance)",
		"range_fn rate()",
		"window [5m] scan #0 amfcc_n1_auth_request hint [start-5m, end]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	if _, err := eng.Explain("sum by ("); err == nil {
		t.Error("Explain accepted an unparsable query")
	}
}

// TestPlanSelectorDedup: two use sites with identical matchers (different
// windows) must share one ScanNode, with the hint widened to cover both.
func TestPlanSelectorDedup(t *testing.T) {
	expr, err := Parse("smf_pdu_session_active + sum(max_over_time(smf_pdu_session_active[10m]))")
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(expr, DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.scans) != 1 {
		t.Fatalf("scans = %d, want 1 (dedup failed)", len(p.scans))
	}
	if p.scans[0].Uses != 2 {
		t.Errorf("Uses = %d, want 2", p.scans[0].Uses)
	}
	joined := strings.Join(p.passes, ", ")
	if !strings.Contains(joined, "selector-dedup(1 scans, 1 shared)") {
		t.Errorf("passes = %q, want selector-dedup(1 scans, 1 shared)", joined)
	}
	// Instant use reads back LookbackDelta (5m), matrix use reads back 10m:
	// the widened hint must cover the larger window.
	if got, want := p.scans[0].RelLo, -(10 * time.Minute).Milliseconds(); got != want {
		t.Errorf("RelLo = %d, want %d", got, want)
	}
	if p.scans[0].RelHi != 0 {
		t.Errorf("RelHi = %d, want 0", p.scans[0].RelHi)
	}
}

// TestPlanConstFold: scalar literal subtrees collapse at plan time.
func TestPlanConstFold(t *testing.T) {
	expr, err := Parse("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(expr, DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := p.root.(*lConst); !ok || c.val != 7 {
		t.Fatalf("root = %#v, want const 7", p.root)
	}
	if joined := strings.Join(p.passes, ", "); !strings.Contains(joined, "constfold(2)") {
		t.Errorf("passes = %q, want constfold(2)", joined)
	}
}

// TestPlanOffsetHints: offsets shift the scan clamp window; selectHints
// materialises it against a concrete range.
func TestPlanOffsetHints(t *testing.T) {
	expr, err := Parse("smf_pdu_session_active offset 10m")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	p, err := newPlan(expr, opts)
	if err != nil {
		t.Fatal(err)
	}
	startMs, endMs := int64(1_000_000_000), int64(1_000_600_000)
	hints := p.selectHints(startMs, endMs)
	if len(hints) != 1 {
		t.Fatalf("hints = %d, want 1", len(hints))
	}
	wantMin := startMs - (10 * time.Minute).Milliseconds() - opts.LookbackDelta.Milliseconds()
	wantMax := endMs - (10 * time.Minute).Milliseconds()
	if hints[0].MinT != wantMin || hints[0].MaxT != wantMax {
		t.Errorf("hint = [%d, %d], want [%d, %d]", hints[0].MinT, hints[0].MaxT, wantMin, wantMax)
	}
}

// TestPlanSubqueryHints: subqueries widen the reachable evaluation range for
// their children before the per-scan windows apply.
func TestPlanSubqueryHints(t *testing.T) {
	expr, err := Parse("avg_over_time(rate(amfcc_n1_auth_request[5m])[10m:1m])")
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(expr, DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.scans) != 1 {
		t.Fatalf("scans = %d, want 1", len(p.scans))
	}
	// Inner eval timestamps reach back 10m (subquery range), and the rate
	// window another 5m: RelLo = -15m.
	if got, want := p.scans[0].RelLo, -(15 * time.Minute).Milliseconds(); got != want {
		t.Errorf("RelLo = %d, want %d", got, want)
	}
}

// TestSaturatingHintArithmetic: hint math pins to ±∞ instead of wrapping.
func TestSaturatingHintArithmetic(t *testing.T) {
	if got := satAdd(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Errorf("satAdd overflow = %d", got)
	}
	if got := satAdd(math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("satAdd underflow = %d", got)
	}
	if got := satSub(math.MinInt64, 1); got != math.MinInt64 {
		t.Errorf("satSub underflow = %d", got)
	}
	if got := satSub(math.MaxInt64, -1); got != math.MaxInt64 {
		t.Errorf("satSub overflow = %d", got)
	}
	if got := satAdd(3, 4); got != 7 {
		t.Errorf("satAdd(3,4) = %d", got)
	}
}

// TestPlanCache: repeated queries with identical canonical text reuse one
// compiled plan.
func TestPlanCache(t *testing.T) {
	db, _ := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	e1, err := Parse("sum(rate(amfcc_n1_auth_request[5m]))")
	if err != nil {
		t.Fatal(err)
	}
	// Same text, separately parsed: must hit the cache.
	e2, err := Parse("sum(rate(amfcc_n1_auth_request[5m]))")
	if err != nil {
		t.Fatal(err)
	}
	cp1, hit1, err := eng.planFor(e1)
	if err != nil {
		t.Fatal(err)
	}
	cp2, hit2, err := eng.planFor(e2)
	if err != nil {
		t.Fatal(err)
	}
	if cp1 != cp2 {
		t.Error("planFor did not reuse the cached compiled plan")
	}
	if hit1 || !hit2 {
		t.Errorf("plan-cache hit flags = %v, %v; want false, true", hit1, hit2)
	}
}

// TestPlannerDefaultRouting: queries evaluate through the planner, which
// is observable via the plan cache filling up.
func TestPlannerDefaultRouting(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	if _, err := eng.Query(context.Background(), "sum(smf_pdu_session_active)", end); err != nil {
		t.Fatal(err)
	}
	eng.planMu.Lock()
	cached := len(eng.plans)
	eng.planMu.Unlock()
	if cached != 1 {
		t.Errorf("plan cache entries = %d, want 1 after a planner query", cached)
	}
}

// TestPlanCompact: the one-line span-attribute form names scans and passes.
func TestPlanCompact(t *testing.T) {
	expr, err := Parse("sum(rate(amfcc_n1_auth_request[5m])) / scalar(sum(smf_pdu_session_active))")
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(expr, DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := p.Compact()
	want := "(sum(rate(window[5m](scan#0))) / scalar(sum(scan#1))) | selector-dedup(2 scans, 0 shared), pushdown(2 matchers -> 1 SelectBatch), range-hints"
	if got != want {
		t.Errorf("Compact() = %q, want %q", got, want)
	}
}
