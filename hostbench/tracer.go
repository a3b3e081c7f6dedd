package main

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/mpi"
)

// This file attributes host time to MPI calls through the public
// mpi.Tracer hook. The runtime invokes a rank's callbacks sequentially
// and each Call callback fires when the call completes, so the host time
// between a rank's previous callback and a Call callback is the host time
// that call took, including the time the rank sat parked waiting for its
// peers. Counting the callbacks also gives the work each layer did.

// Operations counted by name; anything else only counts in mpi.calls.
const (
	opAllreduce = iota
	opSend
	opRecv
	opSendrecv
	opAllgather
	opBarrier
	opOther
	numOps
)

var opNames = [opOther]string{"Allreduce", "Send", "Recv", "Sendrecv", "Allgather", "Barrier"}

func opIndex(name string) int {
	for i, op := range opNames {
		if op == name {
			return i
		}
	}
	return opOther
}

// Host-time histograms kept per traced sample.
const (
	histAll = iota
	histAllreduce
	histRecv
	numHists
)

// gapHist is a log-linear histogram of nanosecond gaps with 64
// sub-buckets per power of two (under 1.6% relative bucket width).
// Observations are atomic, so ranks may record concurrently.
type gapHist struct {
	counts [64 + 58*64]atomic.Int64
}

func gapBucket(v int64) int {
	if v < 64 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // >= 6
	return 64 + (e-6)*64 + int((v>>(e-6))&63)
}

// bucketRange returns the inclusive lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	e := (i-64)/64 + 6
	sub := (i - 64) % 64
	w := float64(int64(1) << (e - 6))
	return float64(64+sub) * w, w
}

func (h *gapHist) observe(v int64) { h.counts[gapBucket(v)].Add(1) }

// quantile returns the q-quantile, interpolated inside its bucket.
func (h *gapHist) quantile(q float64) float64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/c
		}
		cum += c
	}
	return 0
}

// rankSlot is one rank's tracer state, padded so concurrently running
// ranks do not share a cache line.
type rankSlot struct {
	last    int64 // host ns of the rank's previous callback
	calls   [numOps]int64
	compute int64    // Advance callbacks of kind "compute" (cpumodel)
	io      int64    // Advance callbacks of kind "io" (iomodel)
	_       [6]int64 // pads the slot to 128 bytes
}

// callTracer observes one platform run (one world). Its construction
// time and the latest callback bound the run on the host.
type callTracer struct {
	clock   func() int64 // host nanoseconds
	created int64
	ranks   []rankSlot
	hists   *[numHists]gapHist
}

var _ mpi.Tracer = (*callTracer)(nil)

func newCallTracer(clock func() int64, np int, hists *[numHists]gapHist) *callTracer {
	t := &callTracer{clock: clock, ranks: make([]rankSlot, np), hists: hists}
	t.created = clock()
	for i := range t.ranks {
		t.ranks[i].last = t.created
	}
	return t
}

// Call implements mpi.Tracer.
func (t *callTracer) Call(rank int, rec mpi.CallRecord) {
	now := t.clock()
	s := &t.ranks[rank]
	gap := now - s.last
	s.last = now
	op := opIndex(rec.Name)
	s.calls[op]++
	t.hists[histAll].observe(gap)
	switch op {
	case opAllreduce:
		t.hists[histAllreduce].observe(gap)
	case opRecv:
		t.hists[histRecv].observe(gap)
	}
}

// Advance implements mpi.Tracer.
func (t *callTracer) Advance(rank int, kind string, start, dur float64) {
	s := &t.ranks[rank]
	s.last = t.clock()
	switch kind {
	case "compute":
		s.compute++
	case "io":
		s.io++
	}
}

// Region implements mpi.Tracer.
func (t *callTracer) Region(rank int, name string, at float64) {
	t.ranks[rank].last = t.clock()
}

// span returns the host interval from the tracer's construction to the
// last callback of any rank, in seconds.
func (t *callTracer) span() float64 {
	end := t.created
	for i := range t.ranks {
		end = max(end, t.ranks[i].last)
	}
	return float64(end-t.created) / 1e9
}

// tally is the exact work a set of tracers observed.
type tally struct {
	calls       [numOps]int64
	compute, io int64
	runs        int64
}

func (t *callTracer) addTo(a *tally) {
	a.runs++
	for i := range t.ranks {
		s := &t.ranks[i]
		for op, n := range s.calls {
			a.calls[op] += n
		}
		a.compute += s.compute
		a.io += s.io
	}
}

func (a *tally) total() int64 {
	var n int64
	for _, c := range a.calls {
		n += c
	}
	return n
}
