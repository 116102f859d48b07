package promql

// Evaluation kernels. The compiled physical operators in physical.go and
// the test-only reference evaluator (reference_test.go) both delegate the
// actual math to the functions in this file. Keeping a single
// implementation is what makes the differential tests meaningful: the
// two can only diverge in how they fetch samples and order work, never in
// the arithmetic itself.

import (
	"fmt"
	"math"
	"regexp"
	"sort"

	"dio/internal/tsdb"
)

// rangeSeriesValue computes a range-vector function over one series
// window. ok=false drops the series from the output (insufficient
// points). ts is the evaluation timestamp (predict_linear anchors its
// regression there).
func rangeSeriesValue(al *alloc, name string, s []tsdb.Sample, start, end, ts int64, scalarParam float64) (v float64, ok bool, err error) {
	ok = true
	switch name {
	case "rate":
		v, ok = extrapolatedRate(s, start, end, true, true)
	case "increase":
		v, ok = extrapolatedRate(s, start, end, true, false)
	case "delta":
		v, ok = extrapolatedRate(s, start, end, false, false)
	case "irate":
		if len(s) < 2 {
			ok = false
			break
		}
		a, b := s[len(s)-2], s[len(s)-1]
		dv := b.V - a.V
		if dv < 0 { // counter reset
			dv = b.V
		}
		dt := float64(b.T-a.T) / 1000
		if dt <= 0 {
			ok = false
			break
		}
		v = dv / dt
	case "idelta":
		if len(s) < 2 {
			ok = false
			break
		}
		v = s[len(s)-1].V - s[len(s)-2].V
	case "resets":
		prev := s[0].V
		for _, x := range s[1:] {
			if x.V < prev {
				v++
			}
			prev = x.V
		}
	case "changes":
		prev := s[0].V
		for _, x := range s[1:] {
			if x.V != prev {
				v++
			}
			prev = x.V
		}
	case "avg_over_time":
		v = avgOverTime(s)
	case "sum_over_time":
		v = sumOverTime(s)
	case "min_over_time":
		v = minOverTime(s)
	case "max_over_time":
		v = maxOverTime(s)
	case "count_over_time":
		v = float64(len(s))
	case "last_over_time":
		v = s[len(s)-1].V
	case "stddev_over_time":
		v = math.Sqrt(stdvarOverTime(s))
	case "stdvar_over_time":
		v = stdvarOverTime(s)
	case "quantile_over_time":
		// quantile sorts in place, so the window must be copied either way;
		// the copy comes from the arena.
		vals := al.floats(len(s))
		for _, x := range s {
			vals = append(vals, x.V)
		}
		v = quantile(scalarParam, vals)
	case "deriv":
		if len(s) < 2 {
			ok = false
			break
		}
		v, _ = linearRegression(s, s[0].T)
	case "predict_linear":
		if len(s) < 2 {
			ok = false
			break
		}
		slope, intercept := linearRegression(s, ts)
		v = intercept + slope*scalarParam
	default:
		return 0, false, fmt.Errorf("promql: unhandled range function %q", name)
	}
	return v, ok, nil
}

// applyRangeFunc maps a range-vector function over every series of a
// window matrix, producing the sorted instant vector stamped at ts.
func applyRangeFunc(al *alloc, name string, matrix Matrix, start, end, ts int64, scalarParam float64) (Vector, error) {
	out := al.vec(len(matrix))
	for _, series := range matrix {
		v, ok, err := rangeSeriesValue(al, name, series.Samples, start, end, ts, scalarParam)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, VSample{Labels: al.dropName(series.Labels), T: ts, V: v})
	}
	al.sortVec(out)
	return out, nil
}

// applyVectorMath maps a simple vector→vector math function over vec.
// scalars holds the evaluated trailing scalar arguments (round's
// nearest, clamp's bounds).
func applyVectorMath(al *alloc, name string, vec Vector, scalars []float64) Vector {
	apply := func(v float64) float64 {
		switch name {
		case "abs":
			return math.Abs(v)
		case "ceil":
			return math.Ceil(v)
		case "floor":
			return math.Floor(v)
		case "exp":
			return math.Exp(v)
		case "ln":
			return math.Log(v)
		case "log2":
			return math.Log2(v)
		case "log10":
			return math.Log10(v)
		case "sqrt":
			return math.Sqrt(v)
		case "round":
			to := 1.0
			if len(scalars) > 0 {
				to = scalars[0]
			}
			if to == 0 {
				return math.NaN()
			}
			return math.Round(v/to) * to
		case "clamp":
			return math.Max(scalars[0], math.Min(scalars[1], v))
		case "clamp_min":
			return math.Max(scalars[0], v)
		case "clamp_max":
			return math.Min(scalars[0], v)
		case "timestamp":
			return 0 // replaced below
		case "sort", "sort_desc":
			return v // ordering handled after the map
		}
		return math.NaN()
	}
	out := al.vec(len(vec))
	for _, s := range vec {
		v := apply(s.V)
		if name == "timestamp" {
			v = float64(s.T) / 1000
		}
		out = append(out, VSample{Labels: al.dropName(s.Labels), T: s.T, V: v})
	}
	switch name {
	case "sort":
		sort.SliceStable(out, func(i, j int) bool { return out[i].V < out[j].V })
	case "sort_desc":
		sort.SliceStable(out, func(i, j int) bool { return out[i].V > out[j].V })
	}
	return out
}

// histogramQuantileVector implements classic histogram quantiles over
// <metric>_bucket series with le labels.
func histogramQuantileVector(al *alloc, phi float64, vec Vector, ts int64) Vector {
	groups := make(map[string][]bucket)
	groupLabels := make(map[string]tsdb.Labels)
	for _, s := range vec {
		leStr := s.Labels.Get("le")
		if leStr == "" {
			continue
		}
		le, err := parseLE(leStr)
		if err != nil {
			continue
		}
		rest := s.Labels.Without("le", tsdb.MetricNameLabel)
		key := rest.Key()
		groups[key] = append(groups[key], bucket{le: le, count: s.V})
		groupLabels[key] = rest
	}
	keys := al.strs(len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := al.vec(len(keys))
	for _, k := range keys {
		bs := groups[k]
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		out = append(out, VSample{Labels: groupLabels[k], T: ts, V: bucketQuantile(phi, bs)})
	}
	return out
}

// compileLabelReplace compiles a label_replace pattern anchored to the
// whole label value.
func compileLabelReplace(pattern string) (*regexp.Regexp, error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("promql: label_replace pattern: %w", err)
	}
	return re, nil
}

// labelReplaceVector rewrites dst from the expansion of repl against
// src's match of re, per sample.
func labelReplaceVector(al *alloc, vec Vector, re *regexp.Regexp, dst, repl, src string) Vector {
	out := al.vec(len(vec))
	for _, s := range vec {
		val := s.Labels.Get(src)
		idx := re.FindStringSubmatchIndex(val)
		ls := s.Labels
		if idx != nil {
			res := re.ExpandString(nil, repl, val, idx)
			if len(res) > 0 {
				ls = ls.With(dst, string(res))
			} else {
				ls = ls.Without(dst)
			}
		}
		out = append(out, VSample{Labels: ls, T: s.T, V: s.V})
	}
	return out
}

// aggregateVector applies the aggregation described by n to an already
// evaluated input vector. param/strParam are n.Param's evaluated scalar
// or string value. Grouping labels and keys resolve through al's caches
// (one derivation per stable input label set per query), and the group
// accumulators live in al's reusable scratch slab.
func aggregateVector(al *alloc, n *AggregateExpr, vec Vector, param float64, strParam string, ts int64) (Vector, error) {
	sc := al.aggScratchFor(len(vec))
	for _, s := range vec {
		gl, key := al.groupFor(n, s.Labels)
		gi, ok := sc.idx[key]
		if !ok {
			gi = sc.addGroup(gl)
			sc.idx[key] = gi
			sc.order = append(sc.order, key)
		}
		g := &sc.slab[gi]
		if n.Op == AggCountValues {
			g.elems = append(g.elems, s)
		} else {
			g.vals = append(g.vals, s.V)
			g.elems = append(g.elems, s)
		}
	}
	sort.Strings(sc.order)

	out := al.vec(len(sc.slab))
	for _, key := range sc.order {
		g := &sc.slab[sc.idx[key]]
		switch n.Op {
		case AggTopK, AggBottomK:
			k := int(param)
			if k <= 0 {
				continue
			}
			elems := append(al.vec(len(g.elems)), g.elems...)
			if n.Op == AggTopK {
				sort.SliceStable(elems, func(i, j int) bool { return elems[i].V > elems[j].V })
			} else {
				sort.SliceStable(elems, func(i, j int) bool { return elems[i].V < elems[j].V })
			}
			if len(elems) > k {
				elems = elems[:k]
			}
			for _, e := range elems {
				out = append(out, VSample{Labels: e.Labels, T: ts, V: e.V})
			}
			continue
		case AggCountValues:
			counts := make(map[string]int)
			for _, e := range g.elems {
				counts[formatFloat(e.V)]++
			}
			vals := make([]string, 0, len(counts))
			for v := range counts {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				out = append(out, VSample{Labels: g.labels.With(strParam, v), T: ts, V: float64(counts[v])})
			}
			continue
		}
		var v float64
		switch n.Op {
		case AggSum:
			for _, x := range g.vals {
				v += x
			}
		case AggAvg:
			for _, x := range g.vals {
				v += x
			}
			v /= float64(len(g.vals))
		case AggMin:
			v = g.vals[0]
			for _, x := range g.vals[1:] {
				if x < v {
					v = x
				}
			}
		case AggMax:
			v = g.vals[0]
			for _, x := range g.vals[1:] {
				if x > v {
					v = x
				}
			}
		case AggCount:
			v = float64(len(g.vals))
		case AggGroup:
			v = 1
		case AggStddev, AggStdvar:
			var mean float64
			for _, x := range g.vals {
				mean += x
			}
			mean /= float64(len(g.vals))
			var sq float64
			for _, x := range g.vals {
				d := x - mean
				sq += d * d
			}
			v = sq / float64(len(g.vals))
			if n.Op == AggStddev {
				v = math.Sqrt(v)
			}
		case AggQuantile:
			v = quantile(param, append([]float64(nil), g.vals...))
		default:
			return nil, fmt.Errorf("promql: unhandled aggregation %s", n.Op)
		}
		out = append(out, VSample{Labels: g.labels, T: ts, V: v})
	}
	al.sortVec(out)
	return out, nil
}

// applyBinary combines two evaluated operands under n's operator: set
// ops, scalar/scalar arithmetic, vector/scalar broadcast, or
// vector/vector matching.
func applyBinary(al *alloc, n *BinaryExpr, lv, rv Value, ts int64) (Value, error) {
	if n.Op.isSetOp() {
		lvec, lok := lv.(Vector)
		rvec, rok := rv.(Vector)
		if !lok || !rok {
			return nil, fmt.Errorf("promql: set operator %s requires vectors", n.Op)
		}
		return evalSetOp(al, n, lvec, rvec), nil
	}
	switch l := lv.(type) {
	case Scalar:
		switch r := rv.(type) {
		case Scalar:
			v, keep := binArith(n.Op, l.V, r.V, n.ReturnBool)
			if !keep {
				// Scalar comparisons without bool are rejected at parse
				// time; keep=false cannot happen here, but be safe.
				return Scalar{T: ts, V: math.NaN()}, nil
			}
			return Scalar{T: ts, V: v}, nil
		case Vector:
			return vectorScalarOp(al, n, r, l.V, true, ts), nil
		}
	case Vector:
		switch r := rv.(type) {
		case Scalar:
			return vectorScalarOp(al, n, l, r.V, false, ts), nil
		case Vector:
			return evalVectorVector(al, n, l, r, ts)
		}
	}
	return nil, fmt.Errorf("promql: unsupported operand types for %s", n.Op)
}

// dropName removes __name__, as Prometheus does for any operation that
// changes the meaning of a series' values.
func dropName(ls tsdb.Labels) tsdb.Labels { return ls.Without(tsdb.MetricNameLabel) }

func parseLE(s string) (float64, error) {
	if s == "+Inf" || s == "inf" || s == "Inf" {
		return math.Inf(1), nil
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// bucket is one cumulative histogram bucket (le upper bound, count).
type bucket struct {
	le    float64
	count float64
}

// bucketQuantile interpolates the φ-quantile from cumulative buckets.
func bucketQuantile(phi float64, bs []bucket) float64 {
	if len(bs) < 2 || math.IsInf(bs[len(bs)-1].le, -1) {
		return math.NaN()
	}
	if !math.IsInf(bs[len(bs)-1].le, 1) {
		return math.NaN()
	}
	total := bs[len(bs)-1].count
	if total == 0 {
		return math.NaN()
	}
	rank := phi * total
	i := 0
	for i < len(bs)-1 && bs[i].count < rank {
		i++
	}
	if i == 0 {
		upper := bs[0].le
		if upper <= 0 {
			return upper
		}
		return upper * rank / bs[0].count
	}
	if i == len(bs)-1 {
		return bs[len(bs)-2].le
	}
	lowerBound, upperBound := bs[i-1].le, bs[i].le
	lowerCount, upperCount := bs[i-1].count, bs[i].count
	if upperCount == lowerCount {
		return upperBound
	}
	return lowerBound + (upperBound-lowerBound)*(rank-lowerCount)/(upperCount-lowerCount)
}

// binArith applies op to two floats. keep reports whether a comparison
// (without bool) keeps the sample.
func binArith(op BinOp, l, r float64, returnBool bool) (float64, bool) {
	switch op {
	case OpAdd:
		return l + r, true
	case OpSub:
		return l - r, true
	case OpMul:
		return l * r, true
	case OpDiv:
		return l / r, true
	case OpMod:
		return math.Mod(l, r), true
	case OpPow:
		return math.Pow(l, r), true
	}
	var truth bool
	switch op {
	case OpEql:
		truth = l == r
	case OpNeq:
		truth = l != r
	case OpGtr:
		truth = l > r
	case OpLss:
		truth = l < r
	case OpGte:
		truth = l >= r
	case OpLte:
		truth = l <= r
	}
	if returnBool {
		if truth {
			return 1, true
		}
		return 0, true
	}
	return l, truth
}

// vectorScalarOp applies op between each vector sample and a scalar.
// swapped indicates the scalar was the left operand.
func vectorScalarOp(al *alloc, n *BinaryExpr, vec Vector, scalar float64, swapped bool, ts int64) Vector {
	out := al.vec(len(vec))
	for _, s := range vec {
		l, r := s.V, scalar
		if swapped {
			l, r = r, l
		}
		v, keep := binArith(n.Op, l, r, n.ReturnBool)
		if n.Op.isComparison() && !n.ReturnBool {
			if !keep {
				continue
			}
			v = s.V
		}
		out = append(out, VSample{Labels: al.dropName(s.Labels), T: ts, V: v})
	}
	return out
}

// matchKey computes the join identity of a label set under the matching
// clause.
func matchKey(ls tsdb.Labels, m *VectorMatching) string {
	base := ls.Without(tsdb.MetricNameLabel)
	if m == nil {
		return base.Key()
	}
	if m.On {
		return base.Keep(m.MatchingLabels...).Key()
	}
	return base.Without(m.MatchingLabels...).Key()
}

// evalVectorVector performs vector matching: one-to-one by default,
// many-to-one with group_left, one-to-many with group_right.
func evalVectorVector(al *alloc, n *BinaryExpr, l, r Vector, ts int64) (Value, error) {
	card := CardOneToOne
	if n.Matching != nil {
		card = n.Matching.Card
	}
	// Normalise group_right to group_left by swapping operands (and the
	// operator's argument order).
	swapped := false
	if card == CardOneToMany {
		l, r = r, l
		swapped = true
	}
	rightBy := make(map[string]VSample, len(r))
	for _, s := range r {
		key := matchKey(s.Labels, n.Matching)
		if prev, dup := rightBy[key]; dup {
			side := "right"
			if swapped {
				side = "left"
			}
			return nil, fmt.Errorf("promql: many-to-many matching: %s side has duplicate match group (%s and %s)", side, prev.Labels, s.Labels)
		}
		rightBy[key] = s
	}
	seenLeft := make(map[string]bool, len(l))
	out := al.vec(len(l))
	for _, s := range l {
		key := matchKey(s.Labels, n.Matching)
		rs, ok := rightBy[key]
		if !ok {
			continue
		}
		if card == CardOneToOne {
			if seenLeft[key] {
				return nil, fmt.Errorf("promql: many-to-one matching requires group_left (duplicate left group %s)", s.Labels)
			}
			seenLeft[key] = true
		}
		lv, rv := s.V, rs.V
		if swapped {
			lv, rv = rv, lv
		}
		v, keep := binArith(n.Op, lv, rv, n.ReturnBool)
		if n.Op.isComparison() && !n.ReturnBool {
			if !keep {
				continue
			}
			v = lv
		}
		ls := al.dropName(s.Labels)
		if n.Matching != nil && n.Matching.On && card == CardOneToOne {
			ls = ls.Keep(n.Matching.MatchingLabels...)
		}
		// group modifiers copy the requested labels from the "one" side.
		if card != CardOneToOne && n.Matching != nil {
			for _, name := range n.Matching.Include {
				if v := rs.Labels.Get(name); v != "" {
					ls = ls.With(name, v)
				}
			}
		}
		out = append(out, VSample{Labels: ls, T: ts, V: v})
	}
	al.sortVec(out)
	return out, nil
}

// evalSetOp implements and / or / unless.
func evalSetOp(al *alloc, n *BinaryExpr, l, r Vector) Vector {
	keyOf := func(ls tsdb.Labels) string { return matchKey(ls, n.Matching) }
	switch n.Op {
	case OpAnd:
		rset := make(map[string]bool, len(r))
		for _, s := range r {
			rset[keyOf(s.Labels)] = true
		}
		out := al.vec(len(l))
		for _, s := range l {
			if rset[keyOf(s.Labels)] {
				out = append(out, s)
			}
		}
		return out
	case OpUnless:
		rset := make(map[string]bool, len(r))
		for _, s := range r {
			rset[keyOf(s.Labels)] = true
		}
		out := al.vec(len(l))
		for _, s := range l {
			if !rset[keyOf(s.Labels)] {
				out = append(out, s)
			}
		}
		return out
	case OpOr:
		lset := make(map[string]bool, len(l))
		out := append(al.vec(len(l)+len(r)), l...)
		for _, s := range l {
			lset[s.Labels.Key()] = true
		}
		for _, s := range r {
			if !lset[s.Labels.Key()] {
				out = append(out, s)
			}
		}
		al.sortVec(out)
		return out
	}
	return nil
}
