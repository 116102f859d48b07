package promql

import (
	"context"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// testDB builds a small fixture database:
//
//	amfcc_n1_auth_request{nf="amf", instance in {a,b}}: counters increasing
//	  by 2/s (a) and 4/s (b), sampled every 15s for 30 minutes.
//	smf_pdu_session_active{instance in {a,b}}: gauges 100 and 200.
//	http_request_duration_seconds_bucket: a classic histogram.
//
// When DIO_TSDB_SHARDS is set above 1 the fixture is resharded, so the
// whole suite exercises the distributed executor against the same data.
func testDB(t testing.TB) (tsdb.Storage, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	step := 15 * time.Second
	n := 120 // 30 minutes
	for i := 0; i <= n; i++ {
		ts := base.Add(time.Duration(i) * step).UnixMilli()
		el := float64(i) * step.Seconds()
		mustAppend(t, db, map[string]string{"__name__": "amfcc_n1_auth_request", "nf": "amf", "instance": "a"}, ts, 2*el)
		mustAppend(t, db, map[string]string{"__name__": "amfcc_n1_auth_request", "nf": "amf", "instance": "b"}, ts, 4*el)
		mustAppend(t, db, map[string]string{"__name__": "smf_pdu_session_active", "instance": "a"}, ts, 100)
		mustAppend(t, db, map[string]string{"__name__": "smf_pdu_session_active", "instance": "b"}, ts, 200)
	}
	end := base.Add(time.Duration(n) * step)
	// Histogram at the final timestamp: 10 ≤0.1s, 60 ≤0.5s, 100 ≤+Inf.
	for _, b := range []struct {
		le string
		v  float64
	}{{"0.1", 10}, {"0.5", 60}, {"+Inf", 100}} {
		mustAppend(t, db, map[string]string{"__name__": "http_request_duration_seconds_bucket", "le": b.le}, end.UnixMilli(), b.v)
	}
	if n := testShards(); n > 1 {
		return tsdb.Reshard(db, n), end
	}
	return db, end
}

// testShards reads DIO_TSDB_SHARDS (0 or unset means unsharded).
func testShards() int {
	n, err := strconv.Atoi(os.Getenv("DIO_TSDB_SHARDS"))
	if err != nil || n < 1 {
		return 0
	}
	return n
}

func mustAppend(t testing.TB, db tsdb.Storage, labels map[string]string, ts int64, v float64) {
	t.Helper()
	if err := db.Append(tsdb.FromMap(labels), ts, v); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// evalQuery evaluates q at ts through the engine and fails the test on
// error. The reference evaluator runs the same query and must agree, so
// every expected-value assertion on the result checks both: a wrong
// reference fails here instead of silently agreeing with a wrong planner.
func evalQuery(t *testing.T, db tsdb.Storage, q string, ts time.Time) Value {
	t.Helper()
	v, err := NewEngine(db, DefaultEngineOptions()).Query(context.Background(), q, ts)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	want, wantErr := newReference(db, DefaultEngineOptions()).Query(context.Background(), q, ts)
	checkSame(t, q, v, err, want, wantErr)
	return v
}

// scalarOf extracts a single numeric answer from a query result.
func scalarOf(t *testing.T, v Value) float64 {
	t.Helper()
	switch x := v.(type) {
	case Scalar:
		return x.V
	case Vector:
		if len(x) != 1 {
			t.Fatalf("expected single-element vector, got %d elements", len(x))
		}
		return x[0].V
	}
	t.Fatalf("expected scalar-like result, got %T", v)
	return 0
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"5m", 5 * time.Minute, true},
		{"1h30m", 90 * time.Minute, true},
		{"15s", 15 * time.Second, true},
		{"100ms", 100 * time.Millisecond, true},
		{"2d", 48 * time.Hour, true},
		{"1w", 7 * 24 * time.Hour, true},
		{"1y", 365 * 24 * time.Hour, true},
		{"", 0, false},
		{"m5", 0, false},
		{"5x", 0, false},
		{"0s", 0, false},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseDuration(%q) succeeded, want error", c.in)
		}
	}
}

func TestFormatDurationRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{15 * time.Second, 5 * time.Minute, 90 * time.Minute, 24 * time.Hour, 36 * time.Hour} {
		s := FormatDuration(d)
		back, err := ParseDuration(s)
		if err != nil || back != d {
			t.Errorf("round trip %v → %q → %v, %v", d, s, back, err)
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks := Lex(`sum(rate(amfcc_n1_auth_request{nf="amf"}[5m])) by (instance)`)
	if toks[len(toks)-1].Type != EOF {
		t.Fatalf("lexing failed: %+v", toks[len(toks)-1])
	}
	var types []TokenType
	for _, tk := range toks {
		types = append(types, tk.Type)
	}
	want := []TokenType{IDENT, LPAREN, IDENT, LPAREN, IDENT, LBRACE, IDENT, ASSIGN, STRING, RBRACE, LBRACKET, DURATION, RBRACKET, RPAREN, RPAREN, BYKW, LPAREN, IDENT, RPAREN, EOF}
	if len(types) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(types), len(want), types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, types[i], want[i])
		}
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	queries := []string{
		`sum(amfcc_n1_auth_request)`,
		`sum(rate(amfcc_n1_auth_request[5m]))`,
		`100 * (sum(a_success) / sum(a_attempt))`,
		`avg by (instance) (smf_pdu_session_active)`,
		`topk(3, sum by (nf) (rate(x_total[1m])))`,
		`sum(rate(a[5m])) + sum(rate(b[5m]))`,
		`smf_pdu_session_active{instance!="a"}`,
		`smf_pdu_session_active{instance=~"a|b"}`,
		`max_over_time(smf_pdu_session_active[10m])`,
		`histogram_quantile(0.95, http_request_duration_seconds_bucket)`,
		`sum(a) unless sum(b)`,
		`rate(x[5m] offset 10m)`,
		`quantile(0.9, smf_pdu_session_active)`,
	}
	for _, q := range queries {
		e1, err := Parse(q)
		if err != nil {
			t.Errorf("parse %q: %v", q, err)
			continue
		}
		s := e1.String()
		e2, err := Parse(s)
		if err != nil {
			t.Errorf("reparse of %q → %q failed: %v", q, s, err)
			continue
		}
		if e2.String() != s {
			t.Errorf("canonical form not stable: %q → %q → %q", q, s, e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`sum(`,
		`foo{bar=}`,
		`foo[5]`,
		`rate(foo)`,               // needs a range vector
		`rate(foo[5m]) + bar[5m]`, // binary on range vector
		`1 == 2`,                  // scalar comparison without bool
		`unknown_func(foo)`,
		`topk(foo)`, // missing param
		`foo offset`,
		`foo{a!b}`,
		`"str" + 1`,
		`sum(foo) by (a) by (b)`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestEvalInstantSelector(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `smf_pdu_session_active`, end)
	vec, ok := v.(Vector)
	if !ok || len(vec) != 2 {
		t.Fatalf("got %v, want 2-element vector", v)
	}
	if vec[0].V+vec[1].V != 300 {
		t.Errorf("sum of gauge values = %g, want 300", vec[0].V+vec[1].V)
	}
}

func TestEvalSum(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `sum(smf_pdu_session_active)`, end))
	if got != 300 {
		t.Errorf("sum = %g, want 300", got)
	}
}

func TestEvalAvgMinMaxCount(t *testing.T) {
	db, end := testDB(t)
	for q, want := range map[string]float64{
		`avg(smf_pdu_session_active)`:   150,
		`min(smf_pdu_session_active)`:   100,
		`max(smf_pdu_session_active)`:   200,
		`count(smf_pdu_session_active)`: 2,
	} {
		if got := scalarOf(t, evalQuery(t, db, q, end)); got != want {
			t.Errorf("%s = %g, want %g", q, got, want)
		}
	}
}

func TestEvalRate(t *testing.T) {
	db, end := testDB(t)
	// instance a increases 2/s, b 4/s → sum(rate) ≈ 6.
	got := scalarOf(t, evalQuery(t, db, `sum(rate(amfcc_n1_auth_request[5m]))`, end))
	if math.Abs(got-6) > 0.2 {
		t.Errorf("sum(rate) = %g, want ≈6", got)
	}
}

func TestEvalIncrease(t *testing.T) {
	db, end := testDB(t)
	// a increases 2/s over 300s → ≈600.
	v := evalQuery(t, db, `increase(amfcc_n1_auth_request{instance="a"}[5m])`, end)
	got := scalarOf(t, v)
	if math.Abs(got-600) > 25 {
		t.Errorf("increase = %g, want ≈600", got)
	}
}

func TestEvalRateCounterReset(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	vals := []float64{0, 100, 200, 50, 150} // reset after 200
	for i, v := range vals {
		mustAppend(t, db, map[string]string{"__name__": "c_total"}, base.Add(time.Duration(i)*time.Minute).UnixMilli(), v)
	}
	end := base.Add(4 * time.Minute)
	got := scalarOf(t, evalQuery(t, db, `increase(c_total[5m])`, end))
	// Raw increase with reset correction: 100+100+50+100 = 350 plus
	// boundary extrapolation.
	if got < 350 || got > 450 {
		t.Errorf("increase with reset = %g, want in [350, 450]", got)
	}
}

func TestEvalRateGroupBy(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `sum by (instance) (rate(amfcc_n1_auth_request[5m]))`, end)
	vec := v.(Vector)
	if len(vec) != 2 {
		t.Fatalf("got %d series, want 2", len(vec))
	}
	for _, s := range vec {
		want := 2.0
		if s.Labels.Get("instance") == "b" {
			want = 4.0
		}
		if math.Abs(s.V-want) > 0.1 {
			t.Errorf("rate{instance=%s} = %g, want ≈%g", s.Labels.Get("instance"), s.V, want)
		}
	}
}

func TestEvalSuccessRateExpression(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	ts := base.UnixMilli()
	mustAppend(t, db, map[string]string{"__name__": "reg_attempt"}, ts, 80)
	mustAppend(t, db, map[string]string{"__name__": "reg_success"}, ts, 60)
	got := scalarOf(t, evalQuery(t, db, `100 * sum(reg_success) / sum(reg_attempt)`, base))
	if got != 75 {
		t.Errorf("success rate = %g, want 75", got)
	}
}

func TestEvalVectorVectorMatching(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	ts := base.UnixMilli()
	for _, inst := range []string{"a", "b"} {
		mustAppend(t, db, map[string]string{"__name__": "x_success", "instance": inst}, ts, 30)
		mustAppend(t, db, map[string]string{"__name__": "x_attempt", "instance": inst}, ts, 60)
	}
	v := evalQuery(t, db, `x_success / x_attempt`, base)
	vec := v.(Vector)
	if len(vec) != 2 {
		t.Fatalf("got %d series, want 2", len(vec))
	}
	for _, s := range vec {
		if s.V != 0.5 {
			t.Errorf("ratio{%s} = %g, want 0.5", s.Labels, s.V)
		}
	}
}

func TestEvalComparisonFilter(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `smf_pdu_session_active > 150`, end)
	vec := v.(Vector)
	if len(vec) != 1 || vec[0].V != 200 {
		t.Fatalf("filter result = %v, want single 200", vec)
	}
	// bool modifier returns 0/1 for all series.
	v = evalQuery(t, db, `smf_pdu_session_active > bool 150`, end)
	vec = v.(Vector)
	if len(vec) != 2 {
		t.Fatalf("bool result has %d series, want 2", len(vec))
	}
	sum := vec[0].V + vec[1].V
	if sum != 1 {
		t.Errorf("bool sum = %g, want 1", sum)
	}
}

func TestEvalTopK(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `topk(1, smf_pdu_session_active)`, end)
	vec := v.(Vector)
	if len(vec) != 1 || vec[0].V != 200 {
		t.Fatalf("topk = %v, want single 200", vec)
	}
	v = evalQuery(t, db, `bottomk(1, smf_pdu_session_active)`, end)
	vec = v.(Vector)
	if len(vec) != 1 || vec[0].V != 100 {
		t.Fatalf("bottomk = %v, want single 100", vec)
	}
}

func TestEvalOverTimeFunctions(t *testing.T) {
	db, end := testDB(t)
	for q, want := range map[string]float64{
		`avg_over_time(smf_pdu_session_active{instance="a"}[10m])`:  100,
		`max_over_time(smf_pdu_session_active{instance="b"}[10m])`:  200,
		`min_over_time(smf_pdu_session_active{instance="a"}[10m])`:  100,
		`count_over_time(smf_pdu_session_active{instance="a"}[5m])`: 20,
		`last_over_time(smf_pdu_session_active{instance="b"}[5m])`:  200,
	} {
		if got := scalarOf(t, evalQuery(t, db, q, end)); got != want {
			t.Errorf("%s = %g, want %g", q, got, want)
		}
	}
}

func TestEvalHistogramQuantile(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `histogram_quantile(0.5, http_request_duration_seconds_bucket)`, end))
	// rank 50 falls between buckets 0.1 (10) and 0.5 (60):
	// 0.1 + 0.4*(50-10)/50 = 0.42.
	if math.Abs(got-0.42) > 1e-9 {
		t.Errorf("p50 = %g, want 0.42", got)
	}
}

func TestEvalOffset(t *testing.T) {
	db, end := testDB(t)
	now := scalarOf(t, evalQuery(t, db, `amfcc_n1_auth_request{instance="a"}`, end))
	past := scalarOf(t, evalQuery(t, db, `amfcc_n1_auth_request{instance="a"} offset 10m`, end))
	if now-past != 2*600 {
		t.Errorf("offset difference = %g, want 1200", now-past)
	}
}

func TestEvalSetOps(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `smf_pdu_session_active and smf_pdu_session_active{instance="a"}`, end)
	if len(v.(Vector)) != 1 {
		t.Errorf("and: got %d series, want 1", len(v.(Vector)))
	}
	v = evalQuery(t, db, `smf_pdu_session_active unless smf_pdu_session_active{instance="a"}`, end)
	if len(v.(Vector)) != 1 {
		t.Errorf("unless: got %d series, want 1", len(v.(Vector)))
	}
	v = evalQuery(t, db, `smf_pdu_session_active{instance="a"} or smf_pdu_session_active{instance="b"}`, end)
	if len(v.(Vector)) != 2 {
		t.Errorf("or: got %d series, want 2", len(v.(Vector)))
	}
}

func TestEvalScalarFunctions(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `scalar(sum(smf_pdu_session_active)) + 1`, end))
	if got != 301 {
		t.Errorf("scalar + 1 = %g, want 301", got)
	}
	got = scalarOf(t, evalQuery(t, db, `abs(vector(-5))`, end))
	if got != 5 {
		t.Errorf("abs(vector(-5)) = %g, want 5", got)
	}
	got = scalarOf(t, evalQuery(t, db, `clamp_max(vector(10), 3)`, end))
	if got != 3 {
		t.Errorf("clamp_max = %g, want 3", got)
	}
}

func TestEvalAbsent(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `absent(nonexistent_metric)`, end))
	if got != 1 {
		t.Errorf("absent(nonexistent) = %g, want 1", got)
	}
	v := evalQuery(t, db, `absent(smf_pdu_session_active)`, end)
	if len(v.(Vector)) != 0 {
		t.Errorf("absent(existing) should be empty")
	}
}

func TestEvalStalenessLookback(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	mustAppend(t, db, map[string]string{"__name__": "g"}, base.UnixMilli(), 7)
	// Within lookback window (5m default): visible.
	v := evalQuery(t, db, `g`, base.Add(4*time.Minute))
	if len(v.(Vector)) != 1 {
		t.Fatalf("sample should be visible within lookback")
	}
	// Beyond lookback: stale, invisible.
	v = evalQuery(t, db, `g`, base.Add(6*time.Minute))
	if len(v.(Vector)) != 0 {
		t.Fatalf("sample should be stale beyond lookback")
	}
}

func TestQueryRange(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	m, err := eng.QueryRange(context.Background(), `sum(smf_pdu_session_active)`, end.Add(-5*time.Minute), end, time.Minute)
	if err != nil {
		t.Fatalf("range query: %v", err)
	}
	if len(m) != 1 {
		t.Fatalf("got %d series, want 1", len(m))
	}
	if len(m[0].Samples) != 6 {
		t.Errorf("got %d points, want 6", len(m[0].Samples))
	}
	for _, s := range m[0].Samples {
		if s.V != 300 {
			t.Errorf("point = %g, want 300", s.V)
		}
	}
}

func TestMaxSamplesLimit(t *testing.T) {
	db, end := testDB(t)
	opts := EngineOptions{LookbackDelta: 5 * time.Minute, MaxSamples: 3}
	const q = `sum(rate(amfcc_n1_auth_request[5m]))`
	for name, eval := range map[string]func(context.Context, string, time.Time) (Value, error){
		"engine":    NewEngine(db, opts).Query,
		"reference": newReference(db, opts).Query,
	} {
		if _, err := eval(context.Background(), q, end); err == nil || !strings.Contains(err.Error(), "too many samples") {
			t.Fatalf("%s: expected sample-limit error, got %v", name, err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Query(ctx, `sum(smf_pdu_session_active)`, end); err == nil {
		t.Fatal("expected error from cancelled context")
	}
}

func TestMetricNames(t *testing.T) {
	e, err := Parse(`100 * sum(rate(a_success[5m])) / sum(rate(a_attempt[5m])) + avg(b_gauge)`)
	if err != nil {
		t.Fatal(err)
	}
	got := MetricNames(e)
	want := []string{"a_attempt", "a_success", "b_gauge"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNumericEquality(t *testing.T) {
	db, end := testDB(t)
	a := Numeric(evalQuery(t, db, `sum(smf_pdu_session_active)`, end))
	b := Numeric(evalQuery(t, db, `sum(smf_pdu_session_active{instance=~"a|b"})`, end))
	if !EqualResults(a, b, 1e-6) {
		t.Errorf("equivalent queries compare unequal: %v vs %v", a, b)
	}
	c := Numeric(evalQuery(t, db, `avg(smf_pdu_session_active)`, end))
	if EqualResults(a, c, 1e-6) {
		t.Errorf("different queries compare equal")
	}
}

func TestEvalDeterminism(t *testing.T) {
	db, end := testDB(t)
	q := `topk(2, sum by (instance) (rate(amfcc_n1_auth_request[5m])))`
	first := FormatValue(evalQuery(t, db, q, end))
	for i := 0; i < 5; i++ {
		if got := FormatValue(evalQuery(t, db, q, end)); got != first {
			t.Fatalf("non-deterministic result: %q vs %q", got, first)
		}
	}
}

func TestUnaryMinus(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `-sum(smf_pdu_session_active)`, end))
	if got != -300 {
		t.Errorf("unary minus = %g, want -300", got)
	}
}

func TestQuantileAggregation(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `quantile(0.5, smf_pdu_session_active)`, end))
	if got != 150 {
		t.Errorf("median = %g, want 150", got)
	}
}
