package facility

import (
	"math/rand"
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
// slab and the retained heap, profile and payload arrays (about 20
// allocations), where one allocation per pass would add thousands.
func TestRunStreamAllocsFlatInJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	cfg := Config{Slots: [NumPools]int{512}, Backfill: true, Fairshare: true}
	allocs := func(jobs []Job) float64 {
		return testing.AllocsPerRun(2, func() {
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.RunStream(jobs, func(Outcome) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const tenants, maxGrowth = 20, 64
	small := allocs(genJobs(t, 5, 2000, tenants, 512))
	big := allocs(genJobs(t, 5, 8000, tenants, 512))
	if big-small > maxGrowth {
		t.Errorf("RunStream: %v allocs at 2k jobs, %v at 8k; want growth <= %d", small, big, maxGrowth)
	}
}
