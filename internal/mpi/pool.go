package mpi

import (
	"sync"
	"sync/atomic"
)

// The pooled message plane. Every point-to-point payload used to be
// copied into a fresh heap allocation per Send and dropped to the GC
// after the matching Recv; under the heavy collective traffic of the
// figure sweeps that allocation churn dominated the simulator's real
// (wall-clock) cost. Messages now travel in pooled envelopes whose
// payload buffers are leased at send time and recycled at
// receive-completion, so the steady-state hot path allocates nothing.
//
// Ownership transfer: a payload buffer belongs to the sending rank only
// until put() publishes the message, then exclusively to the receiving
// rank, which releases it back to the pool after consuming it. The
// sync.Pool provides the happens-before edge between the releasing and
// the next leasing rank, so recycled buffers are race-free even across
// worlds.
//
// Rendezvous threshold: payloads at or above RendezvousBytes are
// allocated exactly-sized and are dropped to the GC on release instead
// of being retained by an envelope — large transfers get the one
// mandatory copy each way without pinning megabytes in the pool,
// mirroring the eager/rendezvous split of real MPI transports. Setting
// the threshold to 0 disables pooling entirely (every payload and
// envelope allocated fresh), which the equivalence tests use as the
// reference behaviour.

// payloadKind discriminates a message's typed payload.
type payloadKind uint8

const (
	payloadNone payloadKind = iota // phantom (size-only) message
	payloadF64
	payloadInt
	payloadCplx
)

// String names the payload type the way receive-mismatch panics report it.
func (k payloadKind) String() string {
	switch k {
	case payloadNone:
		return "phantom"
	case payloadF64:
		return "[]float64"
	case payloadInt:
		return "[]int"
	case payloadCplx:
		return "[]complex128"
	}
	return "unknown"
}

// DefaultRendezvousBytes is the default eager/rendezvous cutover: 1 MiB,
// comfortably above every collective round and halo exchange in the
// reproduced workloads.
const DefaultRendezvousBytes = 1 << 20

var rendezvousBytes atomic.Int64

func init() { rendezvousBytes.Store(DefaultRendezvousBytes) }

// RendezvousBytes returns the current eager/rendezvous threshold in
// bytes: payloads at or above it bypass the buffer pool (exact-size
// allocation, ownership-transferred and GC-reclaimed); payloads below it
// ride recycled pool buffers. 0 means pooling is disabled.
func RendezvousBytes() int64 { return rendezvousBytes.Load() }

// SetRendezvousBytes sets the threshold and returns the previous value.
// n <= 0 disables the message pool entirely. Safe to call concurrently
// with running worlds; in-flight messages keep the policy they were sent
// under.
func SetRendezvousBytes(n int64) int64 {
	if n < 0 {
		n = 0
	}
	return rendezvousBytes.Swap(n)
}

// msgPool recycles message envelopes together with their payload
// capacity: an envelope that carried a 1 KiB payload comes back with
// that buffer ready to reuse, so a steady stream of same-sized messages
// reaches zero allocations after warm-up.
var msgPool = sync.Pool{New: func() any { return &message{fresh: true} }}

// newMessage leases an envelope (and whatever payload capacity it
// retained) from the pool. fresh reports whether the pool had to
// allocate (a pool miss); release clears the flag, so recycled
// envelopes come back with it unset.
func newMessage() (m *message, fresh bool) {
	if rendezvousBytes.Load() <= 0 {
		return new(message), true
	}
	m = msgPool.Get().(*message)
	fresh = m.fresh
	m.fresh = false
	return m, fresh
}

// release recycles the envelope after the receiver has fully consumed
// the payload. The caller must not touch m afterwards. Buffers at or
// above the rendezvous threshold are shed to the GC so the pool never
// pins large transfers.
func (m *message) release() {
	rv := rendezvousBytes.Load()
	if rv <= 0 {
		return
	}
	f64, ints, cplx := m.f64, m.ints, m.cplx
	if int64(cap(f64))*8 >= rv {
		f64 = nil
	}
	if int64(cap(ints))*8 >= rv {
		ints = nil
	}
	if int64(cap(cplx))*16 >= rv {
		cplx = nil
	}
	*m = message{f64: f64[:0], ints: ints[:0], cplx: cplx[:0]}
	msgPool.Put(m)
}

// roundCap sizes a fresh payload allocation: power-of-two rounded below
// the rendezvous threshold (so slightly varying sizes reuse one pooled
// buffer), exact at or above it (ownership-transfer size, never pooled).
func roundCap(n, elemBytes int) int {
	if int64(n)*int64(elemBytes) >= rendezvousBytes.Load() {
		return n
	}
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// grownF64 resizes buf to n elements, reallocating only when the
// retained capacity is short.
func grownF64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n, roundCap(n, 8))
}

func grownInt(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n, roundCap(n, 8))
}

func grownCplx(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n, roundCap(n, 16))
}
