// Package obs is the run-wide observability plane: a lock-cheap metrics
// registry with Prometheus text exposition and a deterministic JSON
// snapshot, a Scalasca-style wait-state and critical-path analyzer over
// recorded timelines, and structured run manifests tying every artefact
// to the exact run that produced it.
//
// obs is a stdlib-only leaf package. The layers it instruments (mpi,
// sched, trace, iomodel, the cmd binaries) import obs — never the
// reverse — so the analyzer operates on the neutral Event/Timeline types
// defined here rather than on any simulator type.
//
// Determinism contract: metric values are int64 (counts, bytes, or
// nanoseconds of virtual time rounded per event). Integer atomic adds
// commute, so any metric whose per-event increments are themselves
// deterministic yields the same totals regardless of goroutine
// interleaving or worker count. Metrics whose increments depend on real
// scheduling (sync.Pool reuse, queue depths, wall-clock latencies) are
// registered as volatile and excluded from the stable snapshot that
// feeds manifests and the j1-vs-j8 determinism gate.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots and exposition.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Counter is a monotonically increasing int64. All methods are safe for
// concurrent use and no-ops on a nil receiver, so instrumented code never
// branches on whether metrics are enabled.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddSeconds adds a duration expressed in seconds, stored as integer
// nanoseconds. Rounding happens per event, before accumulation, so sums
// commute and stay deterministic under concurrency.
func (c *Counter) AddSeconds(s float64) { c.Add(Nanoseconds(s)) }

// Nanoseconds rounds a duration in seconds to integer nanoseconds, the
// per-event rounding every *Seconds method applies. Code that batches
// durations before feeding a metric rounds each one with it, so the
// batched total equals the per-event one.
func Nanoseconds(s float64) int64 { return int64(math.Round(s * 1e9)) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts int64 observations in exponential buckets: bucket i
// holds values v with bits.Len64(v) == i, i.e. 2^(i-1)-1 < v <= 2^i - 1,
// with bucket 0 holding v <= 0. Bounds are exact for integers, so the
// histogram of a deterministic observation stream is itself
// deterministic.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [65]atomic.Int64
}

// bucketOf returns the index of the bucket holding v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveSeconds records a duration in seconds as integer nanoseconds.
func (h *Histogram) ObserveSeconds(s float64) { h.Observe(Nanoseconds(s)) }

// Merge adds every observation of t to h, one atomic add per non-empty
// bucket. Integer adds commute, so observing values into tallies and
// merging those equals observing the values into h directly.
func (h *Histogram) Merge(t *Tally) {
	if h == nil || t.count == 0 {
		return
	}
	h.count.Add(t.count)
	h.sum.Add(t.sum)
	for i, n := range t.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Tally accumulates observations in Histogram's buckets with plain
// integers: a batch owned by one goroutine (or guarded by its owner's
// lock) and folded into a Histogram with Merge. It lets a hot path
// observe without an atomic read-modify-write per value. The zero value
// is an empty tally.
type Tally struct {
	count, sum int64
	buckets    [65]int64
}

// Observe records one value.
func (t *Tally) Observe(v int64) {
	t.count++
	t.sum += v
	t.buckets[bucketOf(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// upperBound returns the inclusive upper bound of bucket i.
func upperBound(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << i) - 1
}

// entry is one registered metric.
type entry struct {
	name, help string
	kind       Kind
	volatile   bool
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry holds named metrics. Registration takes a mutex; the returned
// handles update via atomics only, never the registry's lock. Hot paths
// that meter every event (the mpi message plane) batch into plain
// per-owner integers and Tallies and add those to the handles once per
// run, so they pay no atomic per event either.
// A nil *Registry is valid everywhere and hands out nil handles.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) register(name, help string, kind Kind, volatile bool) *entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind || e.volatile != volatile {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v/volatile=%v (was %v/volatile=%v)",
				name, kind, volatile, e.kind, e.volatile))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind, volatile: volatile}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{}
	}
	r.entries[name] = e
	return e
}

// Counter registers (or returns the existing) deterministic counter.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, help, KindCounter, false)
	if e == nil {
		return nil
	}
	return e.c
}

// VolatileCounter registers a counter whose value depends on real
// scheduling; it is excluded from the stable snapshot.
func (r *Registry) VolatileCounter(name, help string) *Counter {
	e := r.register(name, help, KindCounter, true)
	if e == nil {
		return nil
	}
	return e.c
}

// Gauge registers (or returns the existing) deterministic gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, help, KindGauge, false)
	if e == nil {
		return nil
	}
	return e.g
}

// VolatileGauge registers a scheduling-dependent gauge.
func (r *Registry) VolatileGauge(name, help string) *Gauge {
	e := r.register(name, help, KindGauge, true)
	if e == nil {
		return nil
	}
	return e.g
}

// Histogram registers (or returns the existing) deterministic histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	e := r.register(name, help, KindHistogram, false)
	if e == nil {
		return nil
	}
	return e.h
}

// VolatileHistogram registers a scheduling-dependent histogram.
func (r *Registry) VolatileHistogram(name, help string) *Histogram {
	e := r.register(name, help, KindHistogram, true)
	if e == nil {
		return nil
	}
	return e.h
}

// Metric is one metric's value in a snapshot. Counters and gauges fill
// Value; histograms fill Count, Sum and the sparse Buckets map keyed by
// the bucket's inclusive upper bound.
type Metric struct {
	Kind     string           `json:"kind"`
	Volatile bool             `json:"volatile,omitempty"`
	Value    int64            `json:"value,omitempty"`
	Count    int64            `json:"count,omitempty"`
	Sum      int64            `json:"sum,omitempty"`
	Buckets  map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot captures every registered metric. With includeVolatile false,
// scheduling-dependent metrics are omitted and the result is a pure
// function of the simulated run — byte-identical across worker counts.
func (r *Registry) Snapshot(includeVolatile bool) map[string]Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Metric, len(r.entries))
	for name, e := range r.entries {
		if e.volatile && !includeVolatile {
			continue
		}
		m := Metric{Kind: e.kind.String(), Volatile: e.volatile}
		switch e.kind {
		case KindCounter:
			m.Value = e.c.Value()
		case KindGauge:
			m.Value = e.g.Value()
		case KindHistogram:
			m.Count = e.h.Count()
			m.Sum = e.h.Sum()
			for i := range e.h.buckets {
				if n := e.h.buckets[i].Load(); n > 0 {
					if m.Buckets == nil {
						m.Buckets = make(map[string]int64)
					}
					m.Buckets[fmt.Sprint(upperBound(i))] = n
				}
			}
		}
		out[name] = m
	}
	return out
}

// WritePrometheus renders every metric (volatile included) in the
// Prometheus text exposition format, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	entries := make(map[string]*entry, len(r.entries))
	for name, e := range r.entries {
		entries[name] = e
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		e := entries[name]
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, e.kind); err != nil {
			return err
		}
		switch e.kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", name, e.c.Value()); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", name, e.g.Value()); err != nil {
				return err
			}
		case KindHistogram:
			var cum int64
			for i := range e.h.buckets {
				n := e.h.buckets[i].Load()
				if n == 0 {
					continue
				}
				cum += n
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, upperBound(i), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, e.h.Count()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, e.h.Sum(), name, e.h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}
