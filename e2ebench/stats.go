package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dio/internal/obs"
)

// percentileMS returns the nearest-rank p-quantile (0 < p <= 1) of ds in
// milliseconds, 0 for an empty sample.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the phase never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around each phase: GC stop-the-world pauses and
// goroutine scheduling latency explain tail latency that no layer's own
// work accounts for.
const (
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmHeapObject = "/memory/classes/heap/objects:bytes"
)

// runtimeSnap is one read of the runtime metrics a phase diffs.
type runtimeSnap struct {
	gcPauses, schedLat *metrics.Float64Histogram
	gcCycles           uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: rmGCPauses}, {Name: rmSchedLat}, {Name: rmGCCycles}}
	metrics.Read(s)
	return runtimeSnap{
		gcPauses: s[0].Value.Float64Histogram(),
		schedLat: s[1].Value.Float64Histogram(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// histP99MS is the p99 of the observations added between two reads of one
// runtime histogram, as the upper bound of the bucket holding it (the
// lower bound for the open last bucket), in milliseconds.
func histP99MS(before, after *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range after.Counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

// heapBytes is the live-plus-unswept heap object bytes right now.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: rmHeapObject}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// regSnap indexes one registry gather by family name, suffix and label
// values, so a phase can diff counters and histogram sums.
type regSnap map[string]float64

func snapRegistry(reg *obs.Registry) regSnap {
	out := make(regSnap)
	for _, f := range reg.Gather() {
		for _, s := range f.Samples {
			if s.Suffix == "_bucket" && f.Name != "dio_gate_wait_seconds" {
				continue
			}
			key := f.Name + s.Suffix
			for _, l := range s.Labels {
				key += "," + l.Value
			}
			out[key] += s.Value
		}
	}
	return out
}

// delta returns how much one registry series moved between two snaps.
func delta(before, after regSnap, key string) float64 { return after[key] - before[key] }

// gateWaitP99MS is the p99 admission-gate wait over a phase from the
// gate's own histogram, as the upper bound of the bucket holding it.
func gateWaitP99MS(before, after regSnap) float64 {
	const prefix = "dio_gate_wait_seconds_bucket,"
	total := delta(before, after, "dio_gate_wait_seconds_count")
	if total == 0 {
		return 0
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for key := range after {
		if le, ok := strings.CutPrefix(key, prefix); ok {
			v, err := strconv.ParseFloat(le, 64)
			if err == nil && !math.IsInf(v, 1) {
				bs = append(bs, bucket{v, delta(before, after, key)})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := math.Ceil(0.99 * total)
	for _, b := range bs {
		if b.cum >= rank {
			return b.le * 1000
		}
	}
	if len(bs) == 0 {
		return 0
	}
	return bs[len(bs)-1].le * 1000
}
