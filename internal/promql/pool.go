package promql

// pool.go — the allocation layer of the streaming batched executor. Range
// queries evaluate their steps in bounded batches (EngineOptions.BatchSize);
// every intermediate container a batch produces — step vectors, window
// matrices, merge scratch — is handed out by a per-partition alloc and
// recycled wholesale when the batch has been folded into the partition's
// accumulator. The arena discipline replaces a per-value ownership
// protocol: nothing is reused while any value of the current batch can
// still reference it, and the only data that outlives a batch — sample
// values (copied by the fold) and label slices (never pooled) — is safe by
// construction.
//
// An alloc is single-goroutine: cursor partitions, and each per-shard
// child part of a distribute node, own one each. The alloc structs
// themselves recycle across queries through a global sync.Pool (pointer-
// typed, so Get/Put never box), which is what makes short single-batch
// queries allocation-free in steady state: the freelists survive from one
// dashboard refresh to the next.
//
// The alloc also carries the per-partition label-derivation caches.
// Stored series labels are immutable and live for the whole execution, so
// name-dropping (rate, binary ops) and aggregation grouping resolve to the
// same derived slice every step instead of rebuilding it; the derived
// slices' Key() strings are cached alongside, which the fold and the
// keyed sort consume. Caches only admit label slices that are themselves
// stable (stored, or produced by a cache), so labels built fresh each step
// cannot grow them without bound. Caches are cleared when the alloc is
// released — label pointers must not leak across queries, where a
// recycled slice address could alias a different series.
//
// Every alloc method also accepts a nil *alloc and falls back to plain
// heap allocation (instant parts and the test-only reference evaluator
// run that way). The poison mode scribbles sentinel values over recycled
// containers so the golden corpus catches any use-after-reset aliasing.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"dio/internal/tsdb"
)

// poolBuckets bounds the power-of-two size classes of the freelists
// (2^23 elements ≈ 8M — far above any per-step container).
const poolBuckets = 24

// defaultBatchSize is the EngineOptions.BatchSize default: enough steps
// that per-batch fixed costs amortize, small enough that a dashboard
// panel's intermediates stay cache-resident.
const defaultBatchSize = 64

// poisonPools, when set (tests only), scribbles sentinel values over every
// container before it is recycled, so any value still aliasing a pooled
// slice after a batch reset corrupts observably instead of silently.
var poisonPools atomic.Bool

// Poison sentinels: a timestamp and label set no real evaluation produces.
const poisonT = int64(-0xDEADBEEF)

var poisonLabels = tsdb.Labels{{Name: "__poisoned__", Value: "0xDEADBEEF"}}

// freelist is one type's recycled-slice store, bucketed by
// floor(log2(cap)): bucket k holds slices with cap in [2^k, 2^(k+1)).
type freelist[T any] struct {
	buckets [poolBuckets][][]T
}

// get returns an empty slice with capacity >= n, recycled when possible.
func (f *freelist[T]) get(n int) []T {
	if n < 1 {
		n = 1
	}
	class := bits.Len(uint(n - 1)) // ceil(log2(n))
	if class >= poolBuckets {
		class = poolBuckets - 1
	}
	b := f.buckets[class]
	for len(b) > 0 {
		s := b[len(b)-1]
		b = b[:len(b)-1]
		f.buckets[class] = b
		if cap(s) >= n {
			return s[:0]
		}
		// Undersized stray in the top bucket (exact-capacity overflow
		// allocation): drop it and keep looking.
	}
	if c := 1 << class; c >= n {
		return make([]T, 0, c)
	}
	return make([]T, 0, n)
}

// put recycles s into its capacity bucket.
func (f *freelist[T]) put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if class >= poolBuckets {
		class = poolBuckets - 1
	}
	f.buckets[class] = append(f.buckets[class], s)
}

// groupCacheKey identifies one (aggregation node, input label slice) pair.
// Aggregate AST nodes are owned by cached plans, so pointer identity is
// stable for the engine's lifetime; the labels half is identified the same
// way the fingerprint cache does.
type groupCacheKey struct {
	n   *AggregateExpr
	ref labelsRef
}

type groupCacheEnt struct {
	labels tsdb.Labels
	key    string
}

// aggGroup is one reusable aggregation-group accumulator of the scratch
// slab.
type aggGroup struct {
	labels tsdb.Labels
	vals   []float64
	elems  Vector // for topk/bottomk/count_values
}

// aggScratch is the reusable working state of aggregateVector: the group
// index, the insertion-ordered key list and the slab the group
// accumulators live in (indices, not pointers — the slab may grow).
type aggScratch struct {
	idx   map[string]int
	order []string
	slab  []aggGroup
}

// addGroup appends a group accumulator for gl, reusing a slab entry's
// vals/elems capacity when one is available.
func (sc *aggScratch) addGroup(gl tsdb.Labels) int {
	if len(sc.slab) < cap(sc.slab) {
		sc.slab = sc.slab[:len(sc.slab)+1]
		g := &sc.slab[len(sc.slab)-1]
		g.labels = gl
		g.vals = g.vals[:0]
		g.elems = g.elems[:0]
	} else {
		sc.slab = append(sc.slab, aggGroup{labels: gl})
	}
	return len(sc.slab) - 1
}

// alloc is the per-partition arena allocator plus derivation caches. A nil
// *alloc is valid everywhere and means "heap, uncached" — instant parts
// and the reference evaluator run with nil.
type alloc struct {
	// shared is the execution's stored-series fingerprint cache
	// (execState.keys) — read-only during evaluation, safe to share
	// across partitions.
	shared map[labelsRef]string
	// derived maps label slices produced by the caches below to their
	// precomputed Key() strings; the fold and keyed sorts hit it.
	derived map[labelsRef]string
	// drops caches dropName per stable input slice.
	drops map[labelsRef]tsdb.Labels
	// groups caches aggregation grouping labels per (node, input slice).
	groups map[groupCacheKey]groupCacheEnt

	freeV freelist[VSample]
	freeM freelist[MSeries]
	freeS freelist[string]
	freeF freelist[float64]

	// live tracks every container handed out since the last reset — the
	// arena. reset moves them all back to the freelists.
	liveV [][]VSample
	liveM [][]MSeries
	liveS [][]string
	liveF [][]float64

	// liveBytes approximates the bytes currently held by live containers;
	// peakBytes is its high-water mark across batches — the "intermediate
	// memory" figure the batch benchmark reports.
	liveBytes int64
	peakBytes int64

	agg      aggScratch
	sortKeys []string
	// keyFn is the bound keyFor method, created once so keyed sorts do not
	// allocate a closure per call.
	keyFn func(tsdb.Labels) string
}

// allocPool recycles alloc structs — freelists included — across queries.
var allocPool = sync.Pool{New: func() any { return new(alloc) }}

// getAlloc leases an alloc bound to an execution's fingerprint cache.
func getAlloc(shared map[labelsRef]string) *alloc {
	al := allocPool.Get().(*alloc)
	al.shared = shared
	if al.derived == nil {
		al.derived = make(map[labelsRef]string)
		al.drops = make(map[labelsRef]tsdb.Labels)
		al.groups = make(map[groupCacheKey]groupCacheEnt)
	}
	if al.keyFn == nil {
		al.keyFn = al.keyFor
	}
	return al
}

// vec returns an empty Vector with capacity >= n.
func (al *alloc) vec(n int) Vector {
	if al == nil {
		return make(Vector, 0, n)
	}
	s := al.freeV.get(n)
	al.liveV = append(al.liveV, s)
	al.liveBytes += int64(cap(s)) * int64(unsafe.Sizeof(VSample{}))
	return s
}

// mat returns an empty Matrix with capacity >= n.
func (al *alloc) mat(n int) Matrix {
	if al == nil {
		return make(Matrix, 0, n)
	}
	s := al.freeM.get(n)
	al.liveM = append(al.liveM, s)
	al.liveBytes += int64(cap(s)) * int64(unsafe.Sizeof(MSeries{}))
	return s
}

// strs returns an empty string slice with capacity >= n.
func (al *alloc) strs(n int) []string {
	if al == nil {
		return make([]string, 0, n)
	}
	s := al.freeS.get(n)
	al.liveS = append(al.liveS, s)
	al.liveBytes += int64(cap(s)) * int64(unsafe.Sizeof(""))
	return s
}

// floats returns an empty float64 slice with capacity >= n.
func (al *alloc) floats(n int) []float64 {
	if al == nil {
		return make([]float64, 0, n)
	}
	s := al.freeF.get(n)
	al.liveF = append(al.liveF, s)
	al.liveBytes += int64(cap(s)) * 8
	return s
}

// reset recycles every live container — the batch boundary. The caller
// guarantees nothing evaluated since the previous reset is referenced
// anymore (the fold copied samples out; labels are never pooled).
func (al *alloc) reset() {
	if al == nil {
		return
	}
	if al.liveBytes > al.peakBytes {
		al.peakBytes = al.liveBytes
	}
	al.liveBytes = 0
	poison := poisonPools.Load()
	for _, s := range al.liveV {
		if poison {
			s = s[:cap(s)]
			for i := range s {
				s[i] = VSample{Labels: poisonLabels, T: poisonT, V: math.NaN()}
			}
		}
		al.freeV.put(s)
	}
	al.liveV = al.liveV[:0]
	for _, s := range al.liveM {
		if poison {
			s = s[:cap(s)]
			for i := range s {
				s[i] = MSeries{Labels: poisonLabels}
			}
		}
		al.freeM.put(s)
	}
	al.liveM = al.liveM[:0]
	for _, s := range al.liveS {
		// Strings always clear: recycled key scratch must not pin large
		// key strings between uses.
		s = s[:cap(s)]
		for i := range s {
			if poison {
				s[i] = "0xDEADBEEF"
			} else {
				s[i] = ""
			}
		}
		al.freeS.put(s)
	}
	al.liveS = al.liveS[:0]
	for _, s := range al.liveF {
		if poison {
			s = s[:cap(s)]
			for i := range s {
				s[i] = math.NaN()
			}
		}
		al.freeF.put(s)
	}
	al.liveF = al.liveF[:0]
}

// release resets the arena one final time, reports the peak into the
// execution's stats, clears the per-query caches (label pointers must not
// alias across queries) and returns the alloc to the global pool.
func (al *alloc) release(st *execState) {
	if al == nil {
		return
	}
	al.reset()
	if st != nil {
		st.notePeakIntermediate(al.peakBytes)
	}
	al.peakBytes = 0
	al.shared = nil
	clear(al.derived)
	clear(al.drops)
	clear(al.groups)
	clear(al.agg.idx)
	for i := range al.agg.order {
		al.agg.order[i] = ""
	}
	al.agg.order = al.agg.order[:0]
	slab := al.agg.slab[:cap(al.agg.slab)]
	for i := range slab {
		g := &slab[i]
		g.labels = nil
		for j := range g.elems {
			g.elems[j] = VSample{}
		}
		g.elems = g.elems[:0]
		g.vals = g.vals[:0]
	}
	al.agg.slab = al.agg.slab[:0]
	for i := range al.sortKeys {
		al.sortKeys[i] = ""
	}
	allocPool.Put(al)
}

// stable reports whether ref identifies a label slice with a stable
// address for this execution: a stored series' labels, or a slice a
// derivation cache produced. Only stable inputs are admitted to the
// caches — fresh per-step slices would grow them without bound.
func (al *alloc) stable(ref labelsRef) bool {
	if _, ok := al.shared[ref]; ok {
		return true
	}
	_, ok := al.derived[ref]
	return ok
}

// keyFor resolves ls.Key() through the fingerprint and derived-key caches.
func (al *alloc) keyFor(ls tsdb.Labels) string {
	if len(ls) == 0 {
		return ""
	}
	if al == nil {
		return ls.Key()
	}
	ref := labelsRef{&ls[0], len(ls)}
	if k, ok := al.shared[ref]; ok {
		return k
	}
	if k, ok := al.derived[ref]; ok {
		return k
	}
	return ls.Key()
}

// registerDerived caches a derived slice's canonical key.
func (al *alloc) registerDerived(ls tsdb.Labels) {
	if len(ls) == 0 {
		return
	}
	ref := labelsRef{&ls[0], len(ls)}
	if _, ok := al.derived[ref]; !ok {
		al.derived[ref] = ls.Key()
	}
}

// dropName is the cached form of the package-level dropName: stable inputs
// resolve to one derived slice for the whole execution.
func (al *alloc) dropName(ls tsdb.Labels) tsdb.Labels {
	if al == nil || len(ls) == 0 {
		return dropName(ls)
	}
	ref := labelsRef{&ls[0], len(ls)}
	if d, ok := al.drops[ref]; ok {
		return d
	}
	if !al.stable(ref) {
		return dropName(ls)
	}
	d := dropName(ls)
	al.drops[ref] = d
	al.registerDerived(d)
	return d
}

// groupFor resolves the aggregation grouping labels and their key for one
// input sample, cached per (node, stable input slice).
func (al *alloc) groupFor(n *AggregateExpr, ls tsdb.Labels) (tsdb.Labels, string) {
	if !n.Without && len(n.Grouping) == 0 {
		return nil, ""
	}
	if al == nil || len(ls) == 0 {
		gl := groupLabels(n, ls)
		return gl, gl.Key()
	}
	ck := groupCacheKey{n, labelsRef{&ls[0], len(ls)}}
	if e, ok := al.groups[ck]; ok {
		return e.labels, e.key
	}
	gl := groupLabels(n, ls)
	key := gl.Key()
	if al.stable(ck.ref) {
		al.groups[ck] = groupCacheEnt{labels: gl, key: key}
		if len(gl) > 0 {
			ref := labelsRef{&gl[0], len(gl)}
			if _, ok := al.derived[ref]; !ok {
				al.derived[ref] = key
			}
		}
	}
	return gl, key
}

// groupLabels computes an aggregation's grouping labels for one input
// label set (the uncached kernel both paths share).
func groupLabels(n *AggregateExpr, ls tsdb.Labels) tsdb.Labels {
	if n.Without {
		drop := append([]string{tsdb.MetricNameLabel}, n.Grouping...)
		return ls.Without(drop...)
	}
	if len(n.Grouping) == 0 {
		return nil
	}
	return ls.Keep(n.Grouping...)
}

// aggScratchFor returns cleared aggregation scratch — the alloc's reusable
// instance, or a fresh heap one on the uncached path. aggregateVector
// never re-enters itself (operands are evaluated before the kernel runs),
// so one instance per alloc suffices.
func (al *alloc) aggScratchFor(sizeHint int) *aggScratch {
	if al == nil {
		return &aggScratch{idx: make(map[string]int, sizeHint)}
	}
	sc := &al.agg
	if sc.idx == nil {
		sc.idx = make(map[string]int, 16)
	} else {
		clear(sc.idx)
	}
	for i := range sc.order {
		sc.order[i] = ""
	}
	sc.order = sc.order[:0]
	sc.slab = sc.slab[:0]
	return sc
}

// sortVec sorts v by label key using the cached keys where available —
// the planner path's equivalent of Vector.Sort, byte-identical because the
// cached keys equal the computed ones and the sort algorithm is shared.
func (al *alloc) sortVec(v Vector) {
	if len(v) < 2 {
		return
	}
	if al == nil {
		v.Sort()
		return
	}
	if cap(al.sortKeys) < len(v) {
		al.sortKeys = make([]string, 0, 2*len(v))
	}
	keys := al.sortKeys[:len(v)]
	for i := range v {
		keys[i] = al.keyFn(v[i].Labels)
	}
	sortWithKeys(v, keys)
	for i := range keys {
		keys[i] = ""
	}
}
