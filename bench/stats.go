package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of raw samples by linear
// interpolation between order statistics. sorted must be ascending.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailQuantile is the highest of p99/p95/p90/p75 that leaves at least ten
// samples beyond it, so the reported tail is never set by a handful of
// outliers (choosing-metrics §1). Fewer than 40 samples support only p75.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.75
}

// latencySummary condenses raw samples: p50, the supported tail, and which
// percentile that tail is.
type latencySummary struct {
	N      int
	P50    float64
	Tail   float64
	TailQ  float64
	Sorted []float64
}

func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	out := latencySummary{N: len(s), TailQ: q, Sorted: s}
	if len(s) > 0 {
		out.P50 = percentile(s, 0.5)
		out.Tail = percentile(s, q)
	}
	return out
}

func pctName(q float64) string { return "p" + strconv.Itoa(int(math.Round(q*100))) }

// retainedHeapMB forces two collections and returns the live heap; the
// second cycle empties the sync.Pool victim caches the first one filled,
// which otherwise come and go between runs.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// totalAlloc is the cumulative bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func itoa(i int) string { return strconv.Itoa(i) }

// padValue renders tag padded with '.' to exactly size bytes (tag wins when
// longer), giving every workload fixed-size, self-describing values.
func padValue(tag string, size int) string {
	if len(tag) >= size {
		return tag
	}
	return tag + strings.Repeat(".", size-len(tag))
}

// splitmix derives independent 63-bit seeds from (seed, stream): the fault
// schedule, the key choice and the cluster's own randomness never share a
// generator, so changing one workload parameter does not shift the others.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
