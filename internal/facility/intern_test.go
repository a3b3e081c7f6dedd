package facility

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestGenerateGolden pins the generated job stream byte for byte: the
// sha256 of its trace for the built-in class mix (at four- and
// six-digit tenancy) and for an explicit, uniformly drawn class list.
// The digests were captured from the generator that drew tenants by a
// binary search over the whole Zipf table and recomputed every job's
// class shape, so the guided draw and the per-call shapes must
// reproduce them exactly.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name string
		spec WorkloadSpec
		want string
	}{
		{"default", WorkloadSpec{Seed: 3, Jobs: 4000, Tenants: 700, Slots: 256},
			"941f277001dad2ef00879d4a472add411ab733e2bd0f1e7e87acfdcce3e59b1b"},
		{"default-1e5-tenants", WorkloadSpec{Seed: 5, Jobs: 20000, Tenants: 100000, Slots: 1024},
			"de67cf0572ddecd3f4f4c126c70188c2764e97b5528f72b24f85175d51fcf73e"},
		{"uniform", WorkloadSpec{Seed: 4, Jobs: 4000, Tenants: 3, Slots: 64, MaxNP: 16,
			Classes: []string{"metum", "ep", "zz"}}, "93eb68fae38c19d75bde1b00856ede8f3b2e70d9a6c0045d900f6f9b3728d693"},
	}
	for _, c := range cases {
		jobs, err := Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(FormatTrace(jobs))); got != c.want {
			t.Errorf("%s: trace sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCumGuideMatchesBinarySearch: the guided search over a cumulative
// table must return exactly the index sort.SearchFloat64s returns, for
// every draw. It is probed where an off-by-one would show: at 0, at
// each guide bucket's lower boundary and one ulp either side of it, at
// every table entry and one ulp either side, at the largest float below
// the total, and at the total itself.
func TestCumGuideMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000, 100000} {
		cum := zipfCum(n)
		total := cum[n-1]
		g := newCumGuide(cum)
		probe := func(x float64) {
			if got, want := g.search(x), sort.SearchFloat64s(cum, x); got != want {
				t.Fatalf("n=%d x=%v: guided search %d, sort.SearchFloat64s %d", n, x, got, want)
			}
		}
		probe(0)
		probe(math.Nextafter(total, 0))
		probe(total)
		for k := 0; k <= len(g.guide); k++ {
			x := float64(k) / g.scale
			probe(x)
			probe(math.Nextafter(x, 0))
			probe(math.Nextafter(x, math.Inf(1)))
		}
		for _, c := range cum {
			probe(c)
			probe(math.Nextafter(c, 0))
			probe(math.Nextafter(c, math.Inf(1)))
		}
		rng := sim.NewRNG(uint64(n))
		for i := 0; i < 10000; i++ {
			probe(rng.Float64() * total)
		}
	}
}

// internWindowJobs returns a shuffled workload a little over two
// interning windows long in which three tenants no earlier job names
// first arrive at arrival positions window-1, window and window+1 —
// the last slot of the first window, and the first two of the second —
// and arrive again half a window later.
func internWindowJobs(t *testing.T) []Job {
	t.Helper()
	const window = 1024
	if internWindow != window {
		t.Fatalf("workload built around a %d-arrival window, internWindow is %d", window, internWindow)
	}
	jobs, err := Generate(WorkloadSpec{Seed: 23, Jobs: 2*window + 300, Tenants: 40, Slots: 32, MaxNP: 8, Utilization: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(29)
	for i := len(jobs) - 1; i > 0; i-- {
		k := rng.Intn(i + 1)
		jobs[i], jobs[k] = jobs[k], jobs[i]
	}
	order := arrivalOrder(jobs)
	if order == nil {
		t.Fatal("shuffled workload is still submit-ordered")
	}
	for k, name := range []string{"late-a", "late-b", "late-c"} {
		pos := window - 1 + k
		jobs[order[pos]].Tenant = name
		jobs[order[pos+window/2]].Tenant = name
	}
	return jobs
}

// TestInternWindowDigests runs a workload longer than the tenant
// interning window, submitted out of order and with tenants first seen
// on both sides of a window boundary, under both schedulers. The
// digests were captured from the facility that kept one heap-allocated
// account per tenant name and looked it up on every enqueue and charge.
func TestInternWindowDigests(t *testing.T) {
	jobs := internWindowJobs(t)
	weights := map[string]float64{"late-a": 4, "late-c": 0.25, "t0001": 2}
	configs := []struct {
		name string
		cfg  Config
		want string
	}{
		{"backfill+fairshare", Config{
			Slots: [NumPools]int{32}, Backfill: true,
			Fairshare: true, FairshareHalfLife: 1800, TenantWeights: weights,
		}, "134e35cce618e918ea5e5110df22b7b365672cadad9dd06665ca86a8c8aa4fad"},
		{"all-knobs", Config{
			Slots: [NumPools]int{32, 16, 16}, Backfill: true, BackfillDepth: 8,
			Fairshare: true, FairshareHalfLife: 1800, TenantWeights: weights,
			Broker: staticTestBroker(), Spot: testSpot(), Prices: [NumPools]float64{0, 0.34, 0.68},
		}, "e2efcd300a16106190d0d94d3a74ccc9d3810e4d4f47c923c6dd8b85d6f75888"},
	}
	for _, c := range configs {
		for _, kind := range []schedKind{schedHeap, schedSort} {
			res, _ := runSched(t, c.cfg, kind, jobs)
			if got := Digest(res); got != c.want {
				t.Errorf("%s (sched %d): digest %s, want %s", c.name, kind, got, c.want)
			}
		}
	}
}
