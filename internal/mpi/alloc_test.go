package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
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
	w := testWorld(t, platform.EC2(), cluster.Spec{NP: np})
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
// The KSp cases log Chaste's solve in windows: read by a clock after
// each 8-iteration solve, and never read, so that windows fill and
// park full.
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
		{"KSp/np8", 8, func(c *Comm) {
			for i := 0; i < 8; i++ {
				kspIteration(c)
			}
			c.Clock()
		}},
		{"KSp-full-window/np8", 8, kspIteration},
	} {
		t.Run(tc.name, func(t *testing.T) { assertNoMarginalAllocs(t, tc.np, tc.op) })
	}
}

// kspIteration is one iteration of Chaste's KSp loop: a compute charge,
// the ring halo with three neighbours on each side and two 4-byte
// all-reduces.
func kspIteration(c *Comm) {
	c.Compute(cpumodel.Work{Flops: 1e6, Bytes: 1e6})
	c.RingExchangeN(12<<10, 3)
	c.AllreduceN(4)
	c.AllreduceN(4)
}

// Budgeted operations: whole Runs of the message plane's hot paths, each
// with a committed allocation budget that TestAllocBudgets asserts with
// testing.AllocsPerRun and a benchmark in BenchmarkBudgeted that `make
// bench` measures. The message counts are large enough that per-message
// costs dominate the fixed per-Run cost (goroutines, rank-state slabs),
// so allocs/run tracks the message plane, not the harness. The budgets
// carry ~2x headroom over the pooled steady state; the pre-pooling code
// exceeded each by an order of magnitude.
//
// ring-exchange also carries an ns/op budget, committed at ~2x its
// steady state on a 2-CPU host so a ~3x regression trips it while host
// variance plus nsTolerance stays inside the headroom. Re-baseline after
// an intentional change by running `make bench` and setting it to ~2x
// the new ns/op.
const nsTolerance = 0.25

var budgetedOps = []struct {
	name   string
	allocs float64 // allocs per op
	ns     float64 // ns per op; 0 leaves the wall time ungated
	op     func(tb testing.TB) func()
}{
	// Point-to-point throughput: 256 8-KiB payloads between two ranks on
	// two nodes. Measured 23 allocs; 793 before pooling.
	{"p2p-throughput", 64, 0, func(tb testing.TB) func() {
		payload := make([]float64, 1024)
		for i := range payload {
			payload[i] = float64(i)
		}
		w := testWorld(tb, platform.Vayu(), cluster.Spec{NP: 2, Nodes: 2, Policy: cluster.Spread})
		return runOp(tb, w, func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < 256; i++ {
					c.Send(1, 0, payload)
				}
				return nil
			}
			buf := make([]float64, 1024)
			for i := 0; i < 256; i++ {
				c.Recv(0, 0, buf)
			}
			return nil
		})
	}},
	// 32 recursive-doubling allreduces of 256 elements over 8 ranks: the
	// reduction scratch and round-trip messages of the KSp-style hot
	// path. Measured 41 allocs; 2623 before pooling.
	{"allreduce", 160, 0, func(tb testing.TB) func() {
		return runOp(tb, testWorld(tb, platform.Vayu(), cluster.Spec{NP: 8}), func(c *Comm) error {
			data := make([]float64, 256)
			for i := 0; i < 32; i++ {
				data[0] = float64(c.Rank() + i)
				c.Allreduce(Sum, data)
			}
			return nil
		})
	}},
	// 32 iterations of Chaste's KSp loop over 32 ranks, the chaste32
	// inner loop: a compute charge, the ring halo with three neighbours
	// on each side and two 4-byte all-reduces, logged in windows and
	// evaluated as schedules. Measured 115 allocs, the Run's fixed cost,
	// and ~2.5ms at GOMAXPROCS 2 (~5.8ms when every rank parked at each
	// operation). The halo played out as messages (~8.4ms) and the
	// per-operation parks both fit the budgets too;
	// TestRingExchangeProgramLeasesNoMessages and
	// TestKSpProgramParksOncePerSolve catch them.
	{"ring-exchange", 360, 17e6, func(tb testing.TB) func() {
		return runOp(tb, testWorld(tb, platform.Vayu(), cluster.Spec{NP: 32}), func(c *Comm) error {
			for i := 0; i < 32; i++ {
				kspIteration(c)
			}
			return nil
		})
	}},
	// Build, run and tear down a 64-rank world, the scheduler's steady
	// state when artefact jobs regenerate in parallel. Measured 215
	// allocs with pooled inboxes and slab comms; ~1620 when every world
	// built its inboxes and per-rank records from scratch.
	{"world-churn-64", 2200, 0, func(tb testing.TB) func() {
		return func() {
			if _, err := RunOn(platform.EC2(), 64, func(c *Comm) error {
				c.Barrier()
				c.AllreduceN(8)
				return nil
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}},
}

// testWorld places spec on p and builds its World. A World is reusable,
// so ops run on one measure the steady state of a warmed world.
func testWorld(tb testing.TB, p *platform.Platform, spec cluster.Spec) *World {
	tb.Helper()
	pl, err := cluster.Place(p, spec)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewWorld(p, pl)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// runOp returns an op that runs fn once on w.
func runOp(tb testing.TB, w *World, fn func(c *Comm) error) func() {
	return func() {
		if _, err := w.Run(fn); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, bo := range budgetedOps {
		t.Run(bo.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(1, bo.op(t)); got > bo.allocs {
				t.Errorf("%s allocated %.0f/run, budget %.0f", bo.name, got, bo.allocs)
			}
		})
	}
}

// BenchmarkBudgeted measures every budgeted op and, on each call with
// b.N > 1, fails one whose mean wall time exceeds its ns budget by more
// than nsTolerance. The wall-clock gate lives here rather than in a test
// because `go test ./...` runs package binaries side by side, whereas
// `make bench` runs benchmarks one package at a time.
func BenchmarkBudgeted(b *testing.B) {
	for _, bo := range budgetedOps {
		b.Run(bo.name, func(b *testing.B) {
			op := bo.op(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			if got := float64(b.Elapsed()) / float64(b.N); b.N > 1 && bo.ns > 0 && got > bo.ns*(1+nsTolerance) {
				b.Fatalf("%s took %.0f ns/op, budget %.0f (+%.0f%% tolerance)", bo.name, got, bo.ns, 100*nsTolerance)
			}
		})
	}
}
