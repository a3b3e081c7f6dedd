package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 of 50 samples is one sample, not a percentile.
const minBeyond = 10

// tailLadder lists the percentiles a timing tail may be reported at, in
// per-mille, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile of the ladder (in
// per-mille) that leaves at least minBeyond of n samples above it, and
// false when even the median does not.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= minBeyond*1000 {
			return pm, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the smallest of xs, and 0 when there is none.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// Go runtime counters read around every sample.
const (
	rtAllocs    = "/gc/heap/allocs:bytes"
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rtMutexWait = "/sync/mutex/wait/total:seconds"
	rtSchedLat  = "/sched/latencies:seconds"
)

// procSnap is one reading of the process's resource counters.
type procSnap struct {
	cpu       float64 // user+sys CPU seconds
	maxRSSKB  int64
	allocs    uint64
	gcCycles  uint64
	gcCPU     float64
	mutexWait float64
	schedLat  *metrics.Float64Histogram
}

func readProc() procSnap {
	samples := []metrics.Sample{
		{Name: rtAllocs}, {Name: rtGCCycles}, {Name: rtGCCPU},
		{Name: rtMutexWait}, {Name: rtSchedLat},
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	// Every metric above exists since Go 1.20, below the go.mod floor.
	return procSnap{
		cpu:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		maxRSSKB:  ru.Maxrss,
		allocs:    samples[0].Value.Uint64(),
		gcCycles:  samples[1].Value.Uint64(),
		gcCPU:     samples[2].Value.Float64(),
		mutexWait: samples[3].Value.Float64(),
		schedLat:  samples[4].Value.Float64Histogram(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// usage is the resource use of one sample: the difference of two
// procSnaps.
type usage struct {
	cpu, allocMB, gcCPU, mutexWait float64
	gcCycles                       float64
	schedLat                       []uint64 // per-bucket count delta
	schedBuckets                   []float64
}

func delta(a, b procSnap) usage {
	u := usage{
		cpu:       b.cpu - a.cpu,
		allocMB:   float64(b.allocs-a.allocs) / (1 << 20),
		gcCPU:     b.gcCPU - a.gcCPU,
		mutexWait: b.mutexWait - a.mutexWait,
		gcCycles:  float64(b.gcCycles - a.gcCycles),
	}
	if a.schedLat != nil && b.schedLat != nil {
		u.schedBuckets = b.schedLat.Buckets
		u.schedLat = make([]uint64, len(b.schedLat.Counts))
		for i := range u.schedLat {
			u.schedLat[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		}
	}
	return u
}

// histQuantile returns the q-quantile of a runtime/metrics histogram
// given as per-bucket counts (len n) over boundaries (len n+1), linearly
// interpolated inside the bucket holding it. Infinite edges collapse to
// the finite neighbour.
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bounds[i], bounds[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}
