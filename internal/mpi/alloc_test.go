package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/platform"
)

// The message plane and the collective schedule evaluator run once per
// message or per collective, so they must not allocate in steady state:
// envelopes, payload buffers, inbox buckets and rendezvous slots are all
// pooled or retained. Each test below runs a warmed, reused World at k
// and at 16k operations per rank and requires the same allocation count
// at both, which cancels the fixed per-Run cost (goroutines, rank-state
// slabs, the Result) and leaves the marginal cost: zero.

// assertNoMarginalAllocs fails unless a Run of 16k calls of op per rank
// allocates exactly as much as a Run of k calls on the same np-rank
// world.
func assertNoMarginalAllocs(t *testing.T, np int, op func(c *Comm)) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	p := platform.EC2()
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := w.Run(func(c *Comm) error {
				for i := 0; i < k; i++ {
					op(c)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const k = 64
	var lo, hi float64
	// A GC cycle between runs empties the pools and refills them with a
	// handful of fresh allocations; a per-operation allocation instead
	// adds at least 15k/np to every attempt, so retrying cannot hide it.
	for attempt := 0; attempt < 3; attempt++ {
		lo, hi = allocs(k), allocs(16*k)
		if lo == hi {
			return
		}
	}
	t.Errorf("np %d: %v allocs per Run at %d ops, %v at %d ops; want equal (0 allocs/op)",
		np, lo, k, hi, 16*k)
}

func TestSendRecvAllocFree(t *testing.T) {
	buf := make([]float64, 32)
	assertNoMarginalAllocs(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, buf[:16])
			c.Recv(1, 4, buf[16:])
			return
		}
		c.Recv(0, 3, buf[:16])
		c.Send(0, 4, buf[16:])
	})
}

func TestSendNRecvNAllocFree(t *testing.T) {
	assertNoMarginalAllocs(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		c.SendN(peer, 5, 1<<10)
		c.RecvN(peer, 5)
	})
}

// TestComputeAllocFree covers Comm.advance, which every compute and I/O
// charge crosses.
func TestComputeAllocFree(t *testing.T) {
	assertNoMarginalAllocs(t, 2, func(c *Comm) {
		c.ComputeSeconds(1e-6)
		c.ReadShared(1<<12, 2)
		c.WriteShared(1<<12, 2)
	})
}

// TestPhantomCollectivesAllocFree drives every schedule the rendezvous
// evaluator has: recursive doubling (Allreduce at a power of two), the
// reduce-plus-bcast trees (Allreduce otherwise), the dissemination
// barrier, the pairwise exchange, the ring allgather and the ring halo
// exchange (at np 6 its third distance meets rank+3 = rank-3 once).
func TestPhantomCollectivesAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		np   int
		op   func(c *Comm)
	}{
		{"AllreduceN/np8", 8, func(c *Comm) { c.AllreduceN(8) }},
		{"AllreduceN/np6", 6, func(c *Comm) { c.AllreduceN(8) }},
		{"Barrier/np8", 8, func(c *Comm) { c.Barrier() }},
		{"AlltoallN/np8", 8, func(c *Comm) { c.AlltoallN(64) }},
		{"AllgatherN/np6", 6, func(c *Comm) { c.AllgatherN(64) }},
		{"RingExchangeN/np8", 8, func(c *Comm) { c.RingExchangeN(1<<10, 3) }},
		{"RingExchangeN/np6", 6, func(c *Comm) { c.RingExchangeN(1<<10, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) { assertNoMarginalAllocs(t, tc.np, tc.op) })
	}
}
