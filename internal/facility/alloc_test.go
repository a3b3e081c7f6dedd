package facility

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
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
		if _, err := f.RunStream(jobs, func(Outcome) {}); err != nil {
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
