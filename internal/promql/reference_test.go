package promql

// reference_test.go — the reference evaluator the engine is diffed
// against. It is the plainest reading of the semantics: a stepwise
// tree-walker with no planner, prefetch, cursors, arenas or parallelism.
// Every evaluation re-runs full storage Select/SelectRange at its own
// timestamp and computes through the shared kernels with a nil allocator.
// The golden corpus, the differential property test, the fuzz target, the
// expected-value tests (via evalQuery) and the batch, pool and long-range
// equivalence suites all compare the engine against it.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// reference evaluates queries over db honouring the LookbackDelta,
// MaxSamples and Timeout of opts; the other options shape execution only.
type reference struct {
	db   tsdb.Storage
	opts EngineOptions
}

func newReference(db tsdb.Storage, opts EngineOptions) *reference {
	if opts.LookbackDelta <= 0 {
		opts.LookbackDelta = 5 * time.Minute
	}
	return &reference{db: db, opts: opts}
}

func (r *reference) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.opts.Timeout > 0 {
		return context.WithTimeout(ctx, r.opts.Timeout)
	}
	return ctx, func() {}
}

// Query evaluates input at ts under a single sample budget.
func (r *reference) Query(ctx context.Context, input string, ts time.Time) (Value, error) {
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	ctx, cancel := r.withTimeout(ctx)
	defer cancel()
	return (&refStep{ctx: ctx, r: r, ts: ts.UnixMilli()}).eval(expr)
}

// QueryRange evaluates input at every step in [start, end], each step
// with a fresh sample budget, and returns the series sorted by label key.
func (r *reference) QueryRange(ctx context.Context, input string, start, end time.Time, step time.Duration) (Matrix, error) {
	if step <= 0 {
		return nil, fmt.Errorf("promql: non-positive step %v", step)
	}
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	ctx, cancel := r.withTimeout(ctx)
	defer cancel()
	var acc refMatrix
	for t := start; !t.After(end); t = t.Add(step) {
		ts := t.UnixMilli()
		v, err := (&refStep{ctx: ctx, r: r, ts: ts}).eval(expr)
		if err != nil {
			return nil, err
		}
		if err := acc.add(v, ts, "range query requires a vector or scalar expression"); err != nil {
			return nil, err
		}
	}
	sort.Slice(acc.m, func(i, j int) bool { return acc.m[i].Labels.Key() < acc.m[j].Labels.Key() })
	return acc.m, nil
}

// refMatrix gathers step results into series in first-seen order.
type refMatrix struct {
	idx map[string]int
	m   Matrix
}

// add appends one step's vector (or scalar, as a label-less sample)
// stamped at ts; any other value type is an error described by what.
func (a *refMatrix) add(v Value, ts int64, what string) error {
	var vec Vector
	switch x := v.(type) {
	case Vector:
		vec = x
	case Scalar:
		vec = Vector{{T: x.T, V: x.V}}
	default:
		return fmt.Errorf("promql: %s", what)
	}
	if a.idx == nil {
		a.idx = make(map[string]int)
	}
	for _, s := range vec {
		k := s.Labels.Key()
		i, ok := a.idx[k]
		if !ok {
			i = len(a.m)
			a.idx[k] = i
			a.m = append(a.m, MSeries{Labels: s.Labels})
		}
		a.m[i].Samples = append(a.m[i].Samples, tsdb.Sample{T: ts, V: s.V})
	}
	return nil
}

// refStep evaluates one timestamp; samples is its budget so far.
type refStep struct {
	ctx     context.Context
	r       *reference
	ts      int64
	samples int
}

func (ev *refStep) account(n int) error {
	ev.samples += n
	if max := ev.r.opts.MaxSamples; max > 0 && ev.samples > max {
		return ErrTooManySamples
	}
	return ev.ctx.Err()
}

func (ev *refStep) eval(expr Expr) (Value, error) {
	if err := ev.ctx.Err(); err != nil {
		return nil, err
	}
	switch n := expr.(type) {
	case *NumberLiteral:
		return Scalar{T: ev.ts, V: n.Val}, nil
	case *StringLiteral:
		return String{T: ev.ts, V: n.Val}, nil
	case *ParenExpr:
		return ev.eval(n.Expr)
	case *UnaryExpr:
		v, err := ev.eval(n.Expr)
		if err != nil {
			return nil, err
		}
		switch x := v.(type) {
		case Scalar:
			return Scalar{T: x.T, V: -x.V}, nil
		case Vector:
			out := make(Vector, len(x))
			for i, s := range x {
				out[i] = VSample{Labels: dropName(s.Labels), T: s.T, V: -s.V}
			}
			return out, nil
		}
		return nil, fmt.Errorf("promql: unary minus on %s", v.ValueType())
	case *VectorSelector:
		points := ev.r.db.Select(n.Matchers, ev.ts-n.Offset.Milliseconds(), ev.r.opts.LookbackDelta.Milliseconds())
		if err := ev.account(len(points)); err != nil {
			return nil, err
		}
		out := make(Vector, 0, len(points))
		for _, p := range points {
			out = append(out, VSample{Labels: p.Labels, T: ev.ts, V: p.Sample.V})
		}
		return out, nil
	case *MatrixSelector, *SubqueryExpr:
		m, _, _, err := ev.window(n)
		return m, err
	case *Call:
		return ev.call(n)
	case *AggregateExpr:
		vec, err := ev.vector(n.Expr)
		if err != nil {
			return nil, err
		}
		var param float64
		var strParam string
		if s, ok := n.Param.(*StringLiteral); ok {
			strParam = s.Val
		} else if n.Param != nil {
			if param, err = ev.scalar(n.Param); err != nil {
				return nil, err
			}
		}
		return aggregateVector(nil, n, vec, param, strParam, ev.ts)
	case *BinaryExpr:
		lv, err := ev.eval(n.LHS)
		if err != nil {
			return nil, err
		}
		rv, err := ev.eval(n.RHS)
		if err != nil {
			return nil, err
		}
		return applyBinary(nil, n, lv, rv, ev.ts)
	}
	return nil, fmt.Errorf("promql: cannot evaluate %T", expr)
}

// window returns a range-vector expression's series over (start, end].
func (ev *refStep) window(arg Expr) (Matrix, int64, int64, error) {
	switch n := arg.(type) {
	case *MatrixSelector:
		end := ev.ts - n.VectorSelector.Offset.Milliseconds()
		start := end - n.Range.Milliseconds()
		ranges := ev.r.db.SelectRange(n.VectorSelector.Matchers, start, end)
		out := make(Matrix, 0, len(ranges))
		total := 0
		for _, s := range ranges {
			total += len(s.Samples)
			out = append(out, MSeries{Labels: s.Labels, Samples: s.Samples})
		}
		if err := ev.account(total); err != nil {
			return nil, 0, 0, err
		}
		return out, start, end, nil
	case *SubqueryExpr:
		end := ev.ts - n.Offset.Milliseconds()
		start := end - n.Range.Milliseconds()
		stepMs := n.Step.Milliseconds()
		if stepMs <= 0 {
			return nil, 0, 0, fmt.Errorf("promql: subquery step must be positive")
		}
		// Inner steps are aligned to the window end, left-open at start,
		// and share (extend) the enclosing step's sample budget.
		var acc refMatrix
		for i := (end - start) / stepMs; i >= 0; i-- {
			t := end - i*stepMs
			if t <= start {
				continue
			}
			sub := &refStep{ctx: ev.ctx, r: ev.r, ts: t, samples: ev.samples}
			v, err := sub.eval(n.Expr)
			if err != nil {
				return nil, 0, 0, err
			}
			ev.samples = sub.samples
			if err := acc.add(v, t, "subquery inner expression must be a vector or scalar"); err != nil {
				return nil, 0, 0, err
			}
		}
		return acc.m, start, end, nil
	}
	return nil, 0, 0, fmt.Errorf("promql: not a range-vector expression: %T", arg)
}

func (ev *refStep) call(n *Call) (Value, error) {
	switch n.Func.Name {
	case "time":
		return Scalar{T: ev.ts, V: float64(ev.ts) / 1000}, nil
	case "vector":
		s, err := ev.scalar(n.Args[0])
		if err != nil {
			return nil, err
		}
		return Vector{{T: ev.ts, V: s}}, nil
	case "scalar":
		v, err := ev.vector(n.Args[0])
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return Scalar{T: ev.ts, V: math.NaN()}, nil
		}
		return Scalar{T: ev.ts, V: v[0].V}, nil
	case "absent":
		v, err := ev.vector(n.Args[0])
		if err != nil {
			return nil, err
		}
		if len(v) > 0 {
			return Vector{}, nil
		}
		return Vector{{T: ev.ts, V: 1}}, nil
	case "histogram_quantile":
		phi, err := ev.scalar(n.Args[0])
		if err != nil {
			return nil, err
		}
		vec, err := ev.vector(n.Args[1])
		if err != nil {
			return nil, err
		}
		return histogramQuantileVector(nil, phi, vec, ev.ts), nil
	case "label_replace":
		vec, err := ev.vector(n.Args[0])
		if err != nil {
			return nil, err
		}
		var lit [4]string // dst, replacement, src, regex
		for i := range lit {
			if lit[i], err = stringLitArg(n.Args[i+1]); err != nil {
				return nil, err
			}
		}
		re, err := compileLabelReplace(lit[3])
		if err != nil {
			return nil, err
		}
		return labelReplaceVector(nil, vec, re, lit[0], lit[1], lit[2]), nil
	}
	// A range-vector argument (one paren level unwrapped) makes this a
	// range function; its first scalar argument, if any, is the parameter.
	for _, a := range n.Args {
		if p, ok := a.(*ParenExpr); ok {
			a = p.Expr
		}
		switch a.(type) {
		case *MatrixSelector, *SubqueryExpr:
			matrix, start, end, err := ev.window(a)
			if err != nil {
				return nil, err
			}
			var param float64
			for _, s := range n.Args {
				if s.Type() == ValueScalar {
					if param, err = ev.scalar(s); err != nil {
						return nil, err
					}
					break
				}
			}
			return applyRangeFunc(nil, n.Func.Name, matrix, start, end, ev.ts, param)
		}
	}
	vec, err := ev.vector(n.Args[0])
	if err != nil {
		return nil, err
	}
	var scalars []float64
	for _, a := range n.Args[1:] {
		s, err := ev.scalar(a)
		if err != nil {
			return nil, err
		}
		scalars = append(scalars, s)
	}
	return applyVectorMath(nil, n.Func.Name, vec, scalars), nil
}

// scalar evaluates an expression that must yield a scalar.
func (ev *refStep) scalar(e Expr) (float64, error) {
	v, err := ev.eval(e)
	if err != nil {
		return 0, err
	}
	s, ok := v.(Scalar)
	if !ok {
		return 0, fmt.Errorf("promql: expected scalar, got %s", v.ValueType())
	}
	return s.V, nil
}

// vector evaluates an expression that must yield an instant vector.
func (ev *refStep) vector(e Expr) (Vector, error) {
	v, err := ev.eval(e)
	if err != nil {
		return nil, err
	}
	vec, ok := v.(Vector)
	if !ok {
		return nil, fmt.Errorf("promql: expected instant vector, got %s", v.ValueType())
	}
	return vec, nil
}

// checkSame fails t unless an engine result agrees with the reference's:
// both failed with the same error text, or both render byte-identically.
func checkSame(t testing.TB, what string, got Value, gotErr error, want Value, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Errorf("%s: error mismatch: engine=%v reference=%v", what, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error text differs\nengine:    %v\nreference: %v", what, gotErr, wantErr)
		}
	case got.String() != want.String():
		t.Errorf("%s: results differ\nengine:\n%s\nreference:\n%s", what, got, want)
	}
}
