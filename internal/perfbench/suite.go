package perfbench

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/facility"
	"repro/internal/mpi"
	"repro/internal/osu"
	"repro/internal/platform"
)

// Suite dimensions. The message counts are large enough that per-message
// costs dominate the fixed per-run cost (world construction, rank
// goroutines), so allocs/op tracks the message plane, not the harness.
const (
	p2pMsgs     = 256  // messages per P2P op
	p2pLen      = 1024 // float64 elements per message (8 KiB)
	allredIters = 32   // allreduces per op
	allredLen   = 256  // float64 elements per allreduce
	allredRanks = 8
	churnRanks  = 64
	ringRanks   = 32 // chaste32's width
	ringIters   = 32 // KSp iterations per op
	ringPairs   = 3  // Chaste's six partition neighbours
	ringBytes   = 12 << 10

	facSlots       = 512 // HPC slots of the facility benches (cloud pools get half each)
	fac10kJobs     = 10000
	fac10kTenants  = 1000
	fac100kJobs    = 100000
	fac100kTenants = 10000
)

// Allocation budgets (allocs per run, measured by testing.AllocsPerRun).
// Committed with ~2x headroom over the pooled message plane's steady
// state; the pre-pooling code exceeds every one of them by an order of
// magnitude, so a regression that reintroduces per-message allocation
// fails `make verify`.
const (
	budgetP2P       = 64  // measured 24 pooled; 793 pre-pooling
	budgetAllreduce = 160 // measured 49 pooled; 2623 pre-pooling
	budgetRing      = 360 // measured 112, the 32-rank Run's fixed cost,
	// which the pooled message path shares: the budget catches per-call
	// allocation in the evaluator. A return of the halo to messages is
	// caught by internal/mpi's TestRingExchangeProgramLeasesNoMessages.
	budgetChurn = 2200 // measured 215 with pooled inboxes and slab
	// comms; ~1620 when every world built its inboxes and per-rank
	// Comm/rankState records from scratch. A regression that drops the
	// inbox pool or the Run slabs lands back above this line.
	budgetOSU = 128 // measured 46 pooled; 240 pre-pooling
	// Facility runs allocate per tenant and per slab chunk, not per job
	// or per event: the incremental scheduler recycles job records
	// through a freelist, the pending heap, release profile and event
	// queue all reuse their backing arrays, and arrivals stream from the
	// job slice instead of the event queue. The budgets scale far
	// slower than 10x between the two sizes; a regression back to
	// per-pass sorting copies or per-job allocation blows through them.
	budgetFac10k  = 2400  // measured ~1060: tenant accounts + map growth dominate
	budgetFac100k = 20000 // measured ~9820: ~0.1 allocs per job
)

// Wall-clock budgets (ns/op, measured by testing.Benchmark and checked
// by CheckNsBudgets with cmd/bench's 25% relative tolerance). Committed
// at ~2x the measured steady state so the gate trips on a ~3x regression
// (a reintroduced sort-per-pass scheduler, an accidental O(n) scan)
// while machine-to-machine variance plus the tolerance stays inside the
// headroom. Re-baseline after an intentional change by running `make
// bench` (`go test -bench BenchmarkSuite`) and copying the new ns/op
// here at ~2x (see README, "Performance gates").
const (
	// Measured on a 2-CPU host; the figures in parentheses are the same
	// host's before arrivals streamed from the job slice.
	nsBudgetFac10k  = 15e6  // measured ~5.6ms (~10ms)
	nsBudgetFac100k = 170e6 // measured ~60ms (~120ms)
	// 32 ranks x 32 KSp iterations; in parentheses with the ring halo
	// played out as SendN/RecvN messages instead of at the rendezvous.
	// That path also fits the budget, so it guards against gross
	// regressions only; internal/mpi's
	// TestRingExchangeProgramLeasesNoMessages catches the halo returning
	// to messages.
	nsBudgetRing = 17e6 // measured ~7.0ms (~8.4ms); ~4.7ms at GOMAXPROCS 1
)

// LintSweepBudgetNs bounds the reprolint whole-module sweep — load,
// type-check and all seven analyzers, measured in-process by
// `cmd/bench -lint-bench`. The static-analysis gate runs on every
// commit, so its own latency is a gated performance surface: an
// analyzer that goes accidentally quadratic in module size
// fails verify here rather than silently doubling every CI run.
// Committed with generous headroom (wall time of a cold sweep is
// noisier than a microbenchmark: export-data cache state and CI
// machine speed both move it).
const LintSweepBudgetNs = 20e9 // measured ~2.1s cold on the reference machine

// world builds an np-rank world on p, one rank per node when spread is
// set (the OSU two-node configuration).
func world(p *platform.Platform, np int, spread bool) *mpi.World {
	spec := cluster.Spec{NP: np}
	if spread {
		spec.Nodes = np
		spec.Policy = cluster.Spread
	}
	pl, err := cluster.Place(p, spec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: place: %v", err))
	}
	w, err := mpi.NewWorld(p, pl)
	if err != nil {
		panic(fmt.Sprintf("perfbench: world: %v", err))
	}
	return w
}

// Suite returns the benchmark suite. Worlds are created lazily and reused
// across iterations (a World is reusable: each Run builds fresh per-rank
// state), so steady-state per-message cost is what gets measured.
func Suite() []Bench {
	var (
		once     sync.Once
		p2pW     *mpi.World
		allredW  *mpi.World
		ringW    *mpi.World
		payload  []float64
		allredIn []float64
	)
	setup := func() {
		once.Do(func() {
			p2pW = world(platform.Vayu(), 2, true)
			allredW = world(platform.Vayu(), allredRanks, false)
			ringW = world(platform.Vayu(), ringRanks, false)
			payload = make([]float64, p2pLen)
			for i := range payload {
				payload[i] = float64(i)
			}
			allredIn = make([]float64, allredLen)
		})
	}

	var (
		facOnce sync.Once
		fac10k  []facility.Job
		fac100k []facility.Job
	)
	facWorkload := func(jobs, tenants int) []facility.Job {
		wl, err := facility.Generate(facility.WorkloadSpec{
			Seed: 1, Jobs: jobs, Tenants: tenants, Slots: facSlots,
		})
		if err != nil {
			panic(fmt.Sprintf("perfbench: facility workload: %v", err))
		}
		return wl
	}
	facRun := func(wl *[]facility.Job) func() {
		return func() {
			facOnce.Do(func() {
				fac10k = facWorkload(fac10kJobs, fac10kTenants)
				fac100k = facWorkload(fac100kJobs, fac100kTenants)
			})
			f, err := facility.New(facility.Config{
				Slots:     [facility.NumPools]int{facSlots, facSlots / 2, facSlots / 2},
				Backfill:  true,
				Fairshare: true,
				Broker: &facility.Broker{
					Factors: map[string][facility.NumPools]float64{
						"ep": {1, 1.1, 1.3}, "cg": {1, 1.8, 2.6}, "mg": {1, 1.5, 2.1},
						"ft": {1, 1.9, 2.8}, "is": {1, 1.4, 1.9},
					},
					DefaultFactors: [facility.NumPools]float64{1, 1.3, 2},
				},
				Prices: [facility.NumPools]float64{0, 0.34, 0.68},
			})
			if err != nil {
				panic(fmt.Sprintf("perfbench: facility: %v", err))
			}
			done := 0
			if _, err := f.RunStream(*wl, func(facility.Outcome) { done++ }); err != nil {
				panic(fmt.Sprintf("perfbench: facility run: %v", err))
			}
			if done != len(*wl) {
				panic(fmt.Sprintf("perfbench: facility run emitted %d of %d outcomes", done, len(*wl)))
			}
		}
	}

	return []Bench{
		{
			// Point-to-point throughput: how fast the runtime moves real
			// payload bytes between two ranks on two nodes.
			Name:        "mpi/p2p-throughput",
			AllocBudget: budgetP2P,
			Op: func() {
				setup()
				_, err := p2pW.Run(func(c *mpi.Comm) error {
					if c.Rank() == 0 {
						for i := 0; i < p2pMsgs; i++ {
							c.Send(1, 0, payload)
						}
						return nil
					}
					buf := make([]float64, p2pLen)
					for i := 0; i < p2pMsgs; i++ {
						c.Recv(0, 0, buf)
					}
					return nil
				})
				if err != nil {
					panic(err)
				}
			},
		},
		{
			// Recursive-doubling allreduce over 8 ranks: the reduction
			// scratch and round-trip messages of the KSp-style hot path.
			Name:        "mpi/allreduce",
			AllocBudget: budgetAllreduce,
			Op: func() {
				setup()
				_, err := allredW.Run(func(c *mpi.Comm) error {
					data := append([]float64(nil), allredIn...)
					for i := 0; i < allredIters; i++ {
						data[0] = float64(c.Rank() + i)
						c.Allreduce(mpi.Sum, data)
					}
					return nil
				})
				if err != nil {
					panic(err)
				}
			},
		},
		{
			// A Chaste KSp iteration over 32 ranks: one compute charge,
			// the ring halo with three neighbours on each side and two
			// 4-byte all-reduces — the fig5/chaste32 inner loop, whose
			// halo and all-reduces the rendezvous evaluates as schedules.
			Name:        "mpi/ring-exchange",
			AllocBudget: budgetRing,
			NsBudget:    nsBudgetRing,
			Op: func() {
				setup()
				_, err := ringW.Run(func(c *mpi.Comm) error {
					for i := 0; i < ringIters; i++ {
						c.Compute(cpumodel.Work{Flops: 1e6, Bytes: 1e6})
						c.RingExchangeN(ringBytes, ringPairs)
						c.AllreduceN(4)
						c.AllreduceN(4)
					}
					return nil
				})
				if err != nil {
					panic(err)
				}
			},
		},
		{
			// World churn: build, run and tear down a 64-rank world — the
			// scheduler's steady state when artefact jobs regenerate in
			// parallel. Dominated by inbox/world construction and the
			// collective envelope traffic of a barrier plus allreduce.
			Name:        "mpi/world-churn-64",
			AllocBudget: budgetChurn,
			Op: func() {
				_, err := mpi.RunOn(platform.EC2(), churnRanks, func(c *mpi.Comm) error {
					c.Barrier()
					c.AllreduceN(8)
					return nil
				})
				if err != nil {
					panic(err)
				}
			},
		},
		{
			// The simulator's own speed on the OSU latency microbenchmark.
			Name:        "osu/latency-sim",
			AllocBudget: budgetOSU,
			Op: func() {
				if _, err := osu.Latency(platform.Vayu(), []int{8}); err != nil {
					panic(err)
				}
			},
		},
		{
			// The batch facility's event loop at four-digit tenancy: ten
			// thousand jobs streamed through backfill, fairshare and a
			// static broker. Allocations track tenants and slab chunks,
			// not jobs — the incremental-scheduler invariant this budget
			// gates.
			Name:        "facility/run-10k",
			AllocBudget: budgetFac10k,
			NsBudget:    nsBudgetFac10k,
			Op:          facRun(&fac10k),
		},
		{
			// The same facility at 100k jobs / 10k tenants: one order of
			// magnitude up in jobs must stay well under one order up in
			// allocations.
			Name:        "facility/run-100k",
			AllocBudget: budgetFac100k,
			NsBudget:    nsBudgetFac100k,
			Op:          facRun(&fac100k),
		},
	}
}
