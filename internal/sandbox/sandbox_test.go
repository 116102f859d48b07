package sandbox

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dio/internal/promql"
	"dio/internal/tsdb"
)

func fixtureDB(t *testing.T) (*tsdb.DB, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		ts := base.Add(time.Duration(i) * 15 * time.Second).UnixMilli()
		for _, inst := range []string{"a", "b"} {
			ls := tsdb.FromMap(map[string]string{"__name__": "m_total", "instance": inst})
			if err := db.Append(ls, ts, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, base.Add(19 * 15 * time.Second)
}

func TestExecuteBasic(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	v, err := ex.Execute(context.Background(), "sum(m_total)", at)
	if err != nil {
		t.Fatal(err)
	}
	res := promql.Numeric(v)
	if len(res) != 1 || res[0].V != 38 {
		t.Fatalf("result = %v, want 38", res)
	}
	if ex.Stats().Executed != 1 {
		t.Errorf("stats = %+v", ex.Stats())
	}
}

func TestExecuteParseError(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	if _, err := ex.Execute(context.Background(), "sum(", at); err == nil {
		t.Fatal("expected parse error")
	}
	if ex.Stats().Failed != 1 {
		t.Errorf("stats = %+v", ex.Stats())
	}
}

func TestVetRejectsNamelessSelector(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	_, err := ex.Execute(context.Background(), `sum({instance="a"})`, at)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	if ex.Stats().Rejected != 1 {
		t.Errorf("stats = %+v", ex.Stats())
	}
	// With the guard disabled, the same query runs.
	lim := DefaultLimits()
	lim.RequireSelective = false
	ex2 := New(db, lim)
	if _, err := ex2.Execute(context.Background(), `sum({instance="a"})`, at); err != nil {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

func TestVetRejectsHugeRange(t *testing.T) {
	db, at := fixtureDB(t)
	lim := DefaultLimits()
	lim.MaxRange = time.Minute
	ex := New(db, lim)
	_, err := ex.Execute(context.Background(), "rate(m_total[5m])", at)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("expected range rejection, got %v", err)
	}
	if _, err := ex.Execute(context.Background(), "rate(m_total[30s])", at); err != nil {
		t.Fatalf("small range rejected: %v", err)
	}
}

func TestResultCardinalityLimit(t *testing.T) {
	db, at := fixtureDB(t)
	lim := DefaultLimits()
	lim.MaxResultSeries = 1
	ex := New(db, lim)
	// m_total has two series → exceeds the cap.
	_, err := ex.Execute(context.Background(), "m_total", at)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("expected cardinality rejection, got %v", err)
	}
	// Aggregated to one series → allowed.
	if _, err := ex.Execute(context.Background(), "sum(m_total)", at); err != nil {
		t.Fatalf("aggregate rejected: %v", err)
	}
}

func TestSampleBudget(t *testing.T) {
	db, at := fixtureDB(t)
	lim := DefaultLimits()
	lim.MaxSamples = 3
	ex := New(db, lim)
	if _, err := ex.Execute(context.Background(), "sum(rate(m_total[5m]))", at); err == nil {
		t.Fatal("expected sample-budget error")
	}
}

func TestExecuteRange(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	m, err := ex.ExecuteRange(context.Background(), "sum(m_total)", at.Add(-2*time.Minute), at, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || len(m[0].Samples) != 5 {
		t.Fatalf("matrix = %v", m)
	}
	// Vetting applies to range queries too.
	if _, err := ex.ExecuteRange(context.Background(), `{instance="a"}`, at.Add(-time.Minute), at, 30*time.Second); !errors.Is(err, ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
}

func TestContextCancel(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.Execute(ctx, "sum(m_total)", at); err == nil {
		t.Fatal("expected context error")
	}
}

func TestAuditLogRecordsOutcomes(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	clockT := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	audit := NewAuditLog(3, func() time.Time { return clockT })
	ex.SetAudit(audit)

	ex.Execute(context.Background(), "sum(m_total)", at)        // executed
	ex.Execute(context.Background(), `sum({instance="a"})`, at) // rejected
	ex.Execute(context.Background(), "sum(", at)                // failed

	entries := audit.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	wants := []Outcome{OutcomeExecuted, OutcomeRejected, OutcomeFailed}
	for i, want := range wants {
		if entries[i].Outcome != want {
			t.Errorf("entry %d outcome = %s, want %s", i, entries[i].Outcome, want)
		}
	}
	if entries[1].Error == "" || entries[2].Error == "" {
		t.Error("error details missing from audit entries")
	}

	// Ring eviction: a fourth query drops the oldest.
	ex.Execute(context.Background(), "avg(m_total)", at)
	entries = audit.Entries()
	if len(entries) != 3 || entries[0].Query != `sum({instance="a"})` {
		t.Fatalf("after eviction: %+v", entries)
	}
	if audit.Len() != 3 {
		t.Errorf("len = %d", audit.Len())
	}
}

func TestNilAuditIsNoop(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	// No audit attached: executing must not panic.
	if _, err := ex.Execute(context.Background(), "sum(m_total)", at); err != nil {
		t.Fatal(err)
	}
	if ex.Audit() != nil {
		t.Fatal("unexpected audit log")
	}
}

// TestAuditRecordsPlan: executed queries carry the compact execution plan
// the engine compiled for them; queries that never reach the planner
// (parse failures, vetting rejections) carry none.
func TestAuditRecordsPlan(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	audit := NewAuditLog(8, nil)
	ex.SetAudit(audit)

	ex.Execute(context.Background(), "sum(rate(m_total[5m]))", at) // executed
	ex.Execute(context.Background(), "sum(", at)                   // parse failure
	ex.Execute(context.Background(), `sum({instance="a"})`, at)    // rejected

	entries := audit.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if want := "sum(rate(window[5m](scan#0)))"; !strings.Contains(entries[0].Plan, want) {
		t.Errorf("executed entry plan = %q, want it to contain %q", entries[0].Plan, want)
	}
	if entries[1].Plan != "" || entries[2].Plan != "" {
		t.Errorf("unplanned queries carry plans: %+v", entries[1:])
	}
}
