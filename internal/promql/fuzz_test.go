package promql

import (
	"context"
	"errors"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// fuzzTooDeep rejects inputs whose evaluation cost is unbounded by
// construction — subqueries with pathological step counts — before they
// reach the evaluators. Everything else must parse → plan → evaluate
// without panicking, and the engine must agree with the reference
// evaluator on both success/failure and rendered results.
func fuzzTooDeep(e Expr) bool {
	deep := false
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil || deep {
			return
		}
		switch n := e.(type) {
		case *SubqueryExpr:
			if n.Step > 0 && n.Range/n.Step > 5000 {
				deep = true
				return
			}
			walk(n.Expr)
		case *ParenExpr:
			walk(n.Expr)
		case *UnaryExpr:
			walk(n.Expr)
		case *MatrixSelector:
			walk(n.VectorSelector)
		case *Call:
			for _, a := range n.Args {
				walk(a)
			}
		case *AggregateExpr:
			walk(n.Expr)
			walk(n.Param)
		case *BinaryExpr:
			walk(n.LHS)
			walk(n.RHS)
		}
	}
	walk(e)
	return deep
}

// fuzzTimeout reports whether an error is a deadline or cancellation —
// timing-dependent outcomes the differential check must not compare.
func fuzzTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// FuzzParsePlanEval: for arbitrary input, parse → plan → evaluate never
// panics, and on valid inputs the engine — unsharded and at 4 shards —
// and the reference evaluator agree byte-for-byte (instant and range). Seeded with the
// golden range corpus. CI runs a 30s -fuzz smoke on top of the checked-in
// corpus replay that `go test` always performs.
func FuzzParsePlanEval(f *testing.F) {
	for _, q := range rangeCorpus {
		f.Add(q)
	}
	f.Add("label_replace(smf_pdu_session_active, (\"dst\"), \"$1\", \"instance\", \"(.*)\")")
	f.Add("rate(((amfcc_n1_auth_request[5m])))")
	f.Add("-(1 + 2) * time()")
	f.Add("max_over_time(rate(amfcc_n1_auth_request[5m])[1h:1s])")
	// Distributed-aggregation seeds: shapes whose merge order (avg exact
	// fold, topk ties, count regrouping) is where sharding bugs would live.
	f.Add("avg by (instance) (rate(amfcc_n1_auth_request[5m]))")
	f.Add("topk(2, smf_pdu_session_active)")
	f.Add("count by (nf) (amfcc_n1_auth_request)")
	f.Add("avg(smf_pdu_session_active) + topk(1, smf_pdu_session_active)")

	db, end := testDB(f)
	base := DefaultEngineOptions()
	base.MaxSamples = 1_000_000
	base.Timeout = 5 * time.Second
	planner := NewEngine(db, base)
	ref := newReference(db, base)
	// The 4-shard engine runs the same data through fan-out + distributed
	// partial aggregation; it must agree with the reference too.
	shardBase := db
	if sh, ok := db.(*tsdb.ShardedDB); ok {
		shardBase = sh.Gather()
	}
	sharded := NewEngine(tsdb.Reshard(shardBase, 4), base)

	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 512 {
			return
		}
		expr, err := Parse(input)
		if err != nil {
			return // invalid input; not panicking is the property
		}
		if fuzzTooDeep(expr) {
			return
		}
		ctx := context.Background()

		want, wantErr := ref.Query(ctx, input, end)
		for name, eng := range map[string]*Engine{"planner": planner, "sharded": sharded} {
			v, err := eng.Query(ctx, input, end)
			if !fuzzTimeout(err) && !fuzzTimeout(wantErr) {
				checkSame(t, "instant "+name+" "+input, v, err, want, wantErr)
			}
		}

		start := end.Add(-10 * time.Minute)
		wantM, wantErr := ref.QueryRange(ctx, input, start, end, time.Minute)
		for name, eng := range map[string]*Engine{"planner": planner, "sharded": sharded} {
			m, err := eng.QueryRange(ctx, input, start, end, time.Minute)
			if !fuzzTimeout(err) && !fuzzTimeout(wantErr) {
				checkSame(t, "range "+name+" "+input, m, err, wantM, wantErr)
			}
		}
	})
}
