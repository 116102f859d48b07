package promql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// genExpr builds a random well-typed expression of bounded depth. It
// exercises the parser/printer pair across the grammar: selectors,
// aggregations, range functions, binary operators, subqueries.
func genExpr(rng *rand.Rand, depth int) string {
	metrics := []string{"amfcc_n1_auth_request", "smf_pdu_session_active", "m_total", "x", "y_attempt"}
	metric := func() string { return metrics[rng.Intn(len(metrics))] }
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return metric()
		case 1:
			return fmt.Sprintf("%s{instance=%q}", metric(), "a")
		default:
			return fmt.Sprintf("%g", math.Trunc(rng.Float64()*100)/4)
		}
	}
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("sum(%s)", genVector(rng, depth-1))
	case 1:
		return fmt.Sprintf("avg by (instance) (%s)", genVector(rng, depth-1))
	case 2:
		return fmt.Sprintf("rate(%s[5m])", metric())
	case 3:
		return fmt.Sprintf("max_over_time(%s[10m])", metric())
	case 4:
		return fmt.Sprintf("(%s) + (%s)", genExpr(rng, depth-1), genExpr(rng, depth-1))
	case 5:
		return fmt.Sprintf("(%s) / (%s)", genExpr(rng, depth-1), genExpr(rng, depth-1))
	case 6:
		return fmt.Sprintf("topk(%d, %s)", 1+rng.Intn(3), genVector(rng, depth-1))
	default:
		return fmt.Sprintf("avg_over_time((%s)[10m:1m])", genVector(rng, depth-1))
	}
}

// genVector generates an expression guaranteed to be vector-typed.
func genVector(rng *rand.Rand, depth int) string {
	metrics := []string{"amfcc_n1_auth_request", "smf_pdu_session_active", "m_total"}
	if depth <= 0 {
		return metrics[rng.Intn(len(metrics))]
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("sum(%s)", genVector(rng, depth-1))
	case 1:
		return fmt.Sprintf("rate(%s[5m])", metrics[rng.Intn(len(metrics))])
	case 2:
		return fmt.Sprintf("clamp_min(%s, 0)", genVector(rng, depth-1))
	default:
		return metrics[rng.Intn(len(metrics))]
	}
}

// TestCanonicalFormFixpoint: for random well-formed expressions, String()
// must re-parse, and the canonical form must be a fixpoint (printing the
// reparsed tree yields the same text).
func TestCanonicalFormFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 500; i++ {
		src := genExpr(rng, 3)
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("generated expression does not parse: %q: %v", src, err)
		}
		canon := e1.String()
		e2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %q (from %q): %v", canon, src, err)
		}
		if again := e2.String(); again != canon {
			t.Fatalf("canonical form is not a fixpoint: %q → %q (from %q)", canon, again, src)
		}
	}
}

// TestRandomExpressionsEvaluateDeterministically: random expressions either
// consistently fail or consistently produce the same result.
func TestRandomExpressionsEvaluateDeterministically(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		src := genExpr(rng, 2)
		v1, err1 := eng.Query(ctx, src, end)
		v2, err2 := eng.Query(ctx, src, end)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("inconsistent errors for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !EqualResults(Numeric(v1), Numeric(v2), 0) {
			t.Fatalf("non-deterministic result for %q", src)
		}
	}
}

// TestDifferentialPlannerReference: every generated expression must
// render byte-identically under the engine and the reference evaluator —
// instant at the fixture end plus every corpus window shape. This is the
// planner's primary differential oracle: any optimizer pass or operator
// that drifts from the tree-walking semantics fails here first.
func TestDifferentialPlannerReference(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ref := newReference(db, DefaultEngineOptions())
	rng := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	for i := 0; i < 150; i++ {
		src := genExpr(rng, 3)
		v, err := eng.Query(ctx, src, end)
		want, wantErr := ref.Query(ctx, src, end)
		checkSame(t, "instant "+src, v, err, want, wantErr)
		for _, w := range rangeWindows(end) {
			m, err := eng.QueryRange(ctx, src, w.start, w.end, w.step)
			want, wantErr := ref.QueryRange(ctx, src, w.start, w.end, w.step)
			checkSame(t, w.name+" "+src, m, err, want, wantErr)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestAggregationInvariants: on the fixture database, algebraic identities
// hold across random metric picks.
func TestAggregationInvariants(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ctx := context.Background()
	for _, metric := range []string{"smf_pdu_session_active", "amfcc_n1_auth_request"} {
		// sum == avg * count
		q := fmt.Sprintf("sum(%[1]s) == bool (avg(%[1]s) * count(%[1]s))", metric)
		v, err := eng.Query(ctx, q, end)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res := Numeric(v)
		if len(res) != 1 || res[0].V != 1 {
			t.Errorf("identity failed for %s: %v", metric, res)
		}
		// min <= avg <= max
		q = fmt.Sprintf("(min(%[1]s) <= bool avg(%[1]s)) * (avg(%[1]s) <= bool max(%[1]s))", metric)
		v, err = eng.Query(ctx, q, end)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res = Numeric(v)
		if len(res) != 1 || res[0].V != 1 {
			t.Errorf("ordering identity failed for %s: %v", metric, res)
		}
	}
}

// TestRateNonNegativeOnCounters: rate() of monotone counters never goes
// negative, across many window/offset combinations.
func TestRateNonNegativeOnCounters(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ctx := context.Background()
	for _, window := range []string{"1m", "5m", "10m", "25m"} {
		for _, offset := range []string{"", " offset 1m", " offset 3m"} {
			q := fmt.Sprintf("min(rate(amfcc_n1_auth_request[%s]%s))", window, offset)
			v, err := eng.Query(ctx, q, end)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for _, r := range Numeric(v) {
				if r.V < 0 {
					t.Errorf("negative rate for window %s offset %q: %g", window, offset, r.V)
				}
			}
		}
	}
}

// TestQueryRangeMatchesInstantQueries: every point of a range query equals
// the instant query at that step.
func TestQueryRangeMatchesInstantQueries(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ctx := context.Background()
	const q = "sum(rate(amfcc_n1_auth_request[5m]))"
	start := end.Add(-5 * time.Minute)
	m, err := eng.QueryRange(ctx, q, start, end, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 {
		t.Fatalf("series = %d", len(m))
	}
	for _, smp := range m[0].Samples {
		v, err := eng.Query(ctx, q, time.UnixMilli(smp.T))
		if err != nil {
			t.Fatal(err)
		}
		res := Numeric(v)
		if len(res) != 1 || math.Abs(res[0].V-smp.V) > 1e-12 {
			t.Fatalf("range point %d (%g) differs from instant (%v)", smp.T, smp.V, res)
		}
	}
}
