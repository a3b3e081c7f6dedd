package facility

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// The incremental scheduler's structures are touched once per job
// arrival, start and completion, so on a warmed instance (backing arrays
// already grown) they must not allocate.

func TestPendHeapAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	rng := rand.New(rand.NewSource(3))
	recs := make([]jobRec, 256)
	for i := range recs {
		recs[i] = jobRec{job: Job{Submit: float64(rng.Intn(64))}, seq: i}
	}
	var q pendHeap
	cycle := func() {
		for i := range recs {
			q.push(heapEntry{key: float64(rng.Intn(8)), rec: &recs[i]})
		}
		for q.len() > 0 {
			q.pop()
		}
	}
	cycle()
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Errorf("warmed pendHeap: %v allocs per %d push/pop cycles; want 0", a, len(recs))
	}
}

func TestReleaseProfileAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	rng := rand.New(rand.NewSource(4))
	at := make([]float64, 256)
	for i := range at {
		at[i] = float64(rng.Intn(64))
	}
	var prof releaseProfile
	cycle := func() {
		for i, a := range at {
			prof.insert(a, 1+i%8, i)
		}
		for i, a := range at {
			prof.reservation(0, 0, 1+i%64)
			prof.rank(a, i)
		}
		for i, a := range at {
			prof.remove(a, i)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Errorf("warmed releaseProfile: %v allocs per %d-release cycle; want 0", a, len(at))
	}
}

// TestRunStreamAllocsFlatInJobs bounds the whole event loop, where the
// scheduling pass (scheduleHeap, popFresh, backfillHeap) runs once per
// event: 4x the jobs may only add the amortised growth of the job-record
// slab and the retained heap and profile arrays (about 20 allocations),
// where one allocation per pass would add thousands.
//
// It also bounds the bytes allocated: the loop's memory must follow the
// in-flight set, not the job count. That needs a workload whose
// in-flight set is stationary — at 90% offered load the queue stays
// shallow, whereas the overloaded count workload's backlog (pending
// records and heap entries) legitimately grows with its length — so
// from 2k to 8k such jobs the bytes may grow by at most 64 KiB. An event
// loop that queued every arrival in its event heap, with a side array
// of completion records indexed by sequence number, grew by 868,352
// bytes here; streaming arrivals grows by 0.
func TestRunStreamAllocsFlatInJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	cfg := Config{Slots: [NumPools]int{512}, Backfill: true, Fairshare: true}
	run := func(jobs []Job) {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.RunStream(Jobs(jobs), func(Outcome) {}); err != nil {
			t.Fatal(err)
		}
	}
	const tenants, maxGrowth, maxByteGrowth = 20, 64, 64 << 10
	smallJobs, bigJobs := genJobs(t, 5, 2000, tenants, 512), genJobs(t, 5, 8000, tenants, 512)
	small := testing.AllocsPerRun(2, func() { run(smallJobs) })
	big := testing.AllocsPerRun(2, func() { run(bigJobs) })
	if big-small > maxGrowth {
		t.Errorf("RunStream: %v allocs at 2k jobs, %v at 8k; want growth <= %d", small, big, maxGrowth)
	}

	// bytes is the smallest TotalAlloc delta over a few runs, so a stray
	// runtime allocation on another goroutine cannot inflate it.
	bytes := func(n int) uint64 {
		jobs, err := Generate(WorkloadSpec{Seed: 5, Jobs: n, Tenants: tenants, Slots: 512, Utilization: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		run(jobs) // warm-up
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(jobs)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	if small, big := bytes(2000), bytes(8000); big > small+maxByteGrowth {
		t.Errorf("RunStream: %d bytes allocated at 2k jobs, %d at 8k; want growth <= %d", small, big, maxByteGrowth)
	}
}

// TestStreamDigestAllocFree: the streaming digest hashes every outcome
// of a run, so once its record buffer has grown Observe allocates
// nothing.
func TestStreamDigestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	o := Outcome{
		Job: Job{Tenant: "t0042", Class: "metum", NP: 64, Runtime: 1800, Limit: 2400, Submit: 12.5},
		Seq: 7, Pool: PoolEC2, State: StateCompleted, Start: 20, End: 1900, Interruptions: 1, Cost: 3.5,
	}
	d := NewStreamDigest()
	d.Observe(o)
	if a := testing.AllocsPerRun(100, func() { d.Observe(o) }); a != 0 {
		t.Errorf("warmed StreamDigest.Observe: %v allocs per outcome; want 0", a)
	}
}

// TestGenerateAllocBudget: the generator allocates its tables, its
// columns and the job slice, and all tenant names in one string, so its
// allocations do not grow with the tenants named. Formatting each name
// separately costs about two allocations per tenant, ~24,000 more here.
func TestGenerateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	const budget = 16 // measured 12-14
	spec := WorkloadSpec{Seed: 5, Jobs: 20000, Tenants: 100000, Slots: 1024}
	got := testing.AllocsPerRun(2, func() {
		if _, err := Generate(spec); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Generate at %d tenants: %.0f allocs, budget %d", spec.Tenants, got, budget)
	}
}

// Budgeted runs: the event loop at four- and five-digit tenancy, each
// job streamed through backfill, fairshare and a static broker; the
// metered run also counts into a fresh obs registry, as the E15
// artefact does.
// TestRunAllocBudgets asserts their allocation budgets, and
// BenchmarkRun measures them and gates their wall time. Each streams a
// generated workload, whose tenant indices name accounts directly, so
// allocations track account chunks and slab chunks, not tenants, jobs
// or events: fairshare accounts live 256 to a chunk, job records
// recycle through a freelist, the pending heap, release profile and
// event queue reuse their arrays, and arrivals fill one window. The budgets sit at ~2x the measured counts, so a
// return to one heap object per tenant account (1000 and 10000 more
// allocations), per-pass sorting copies or per-job allocation fails
// them.
//
// The ns budgets sit at ~2x the steady state on a 2-CPU host, so a ~3x
// regression (a sort-per-pass scheduler, an O(n) scan) trips them while
// host variance plus nsTolerance stays inside the headroom. Re-baseline
// after an intentional change by running `make bench` and setting them
// to ~2x the new ns/op.
const nsTolerance = 0.25

var budgetedRuns = []struct {
	name          string
	jobs, tenants int
	metered       bool
	allocs        float64 // allocs per run
	ns            float64 // ns per run
}{
	{"run-10k", 10000, 1000, false, 160, 15e6},            // measured 62 allocs (account and slab chunks, class table, arrival window), ~5.5ms
	{"run-100k", 100000, 10000, false, 360, 170e6},        // measured 107 allocs, ~62ms
	{"run-100k-metrics", 100000, 10000, true, 420, 120e6}, // measured 131 allocs (a fresh registry's 9 metrics), ~57ms
}

// budgetedRun returns an op that runs a fresh facility over a seeded
// jobs-job workload on 512 HPC slots and half as many in each cloud
// pool, metered into a fresh registry if metered is set.
func budgetedRun(tb testing.TB, jobs, tenants int, metered bool) func() {
	const slots = 512
	wl, err := NewWorkload(WorkloadSpec{Seed: 1, Jobs: jobs, Tenants: tenants, Slots: slots})
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		var reg *obs.Registry
		if metered {
			reg = obs.NewRegistry()
		}
		f, err := New(Config{
			Slots:     [NumPools]int{slots, slots / 2, slots / 2},
			Backfill:  true,
			Fairshare: true,
			Broker: &Broker{
				Factors: map[string][NumPools]float64{
					"ep": {1, 1.1, 1.3}, "cg": {1, 1.8, 2.6}, "mg": {1, 1.5, 2.1},
					"ft": {1, 1.9, 2.8}, "is": {1, 1.4, 1.9},
				},
				DefaultFactors: [NumPools]float64{1, 1.3, 2},
			},
			Prices:  [NumPools]float64{0, 0.34, 0.68},
			Metrics: reg,
		})
		if err != nil {
			tb.Fatal(err)
		}
		done := 0
		if _, err := f.RunStream(wl, func(Outcome) { done++ }); err != nil {
			tb.Fatal(err)
		}
		if done != wl.Len() {
			tb.Fatalf("run emitted %d of %d outcomes", done, wl.Len())
		}
	}
}

func TestRunAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	for _, r := range budgetedRuns {
		t.Run(r.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(1, budgetedRun(t, r.jobs, r.tenants, r.metered)); got > r.allocs {
				t.Errorf("%s allocated %.0f/run, budget %.0f", r.name, got, r.allocs)
			}
		})
	}
}

// BenchmarkRun measures every budgeted run and, on each call with
// b.N > 1, fails one whose mean wall time exceeds its ns budget by more
// than nsTolerance. The wall-clock gate lives here rather than in a test
// because `go test ./...` runs package binaries side by side, whereas
// `make bench` runs benchmarks one package at a time.
func BenchmarkRun(b *testing.B) {
	for _, r := range budgetedRuns {
		b.Run(r.name, func(b *testing.B) {
			op := budgetedRun(b, r.jobs, r.tenants, r.metered)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			if got := float64(b.Elapsed()) / float64(b.N); b.N > 1 && got > r.ns*(1+nsTolerance) {
				b.Fatalf("%s took %.0f ns/op, budget %.0f (+%.0f%% tolerance)", r.name, got, r.ns, 100*nsTolerance)
			}
		})
	}
}
