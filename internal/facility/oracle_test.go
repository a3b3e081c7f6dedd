package facility

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// queueStats is the FCFS oracle's summary of one run.
type queueStats struct {
	Jobs        int
	AvgWait     float64 // mean queue wait, seconds
	MaxWait     float64
	Makespan    float64
	AvgSlowdown float64 // mean of (wait+run)/run
}

// interval is one scheduled execution in the oracle.
type interval struct {
	start, end float64
	slots      int
}

// usageAfter returns the slots of intervals still running strictly after t.
func usageAfter(iv []interval, t float64) int {
	used := 0
	for _, r := range iv {
		if r.end > t && r.start <= t {
			used += r.slots
		}
	}
	return used
}

// fcfsOracle is an independent strict-FCFS (no backfill) list scheduler
// over a cluster of `slots` cores: a quadratic interval walk, obviously
// correct at small N, that the cross-validation tests hold the
// event-driven facility to bit for bit. It reads only NP, Runtime and
// Submit; jobs run exactly Runtime.
func fcfsOracle(jobs []Job, slots int) (queueStats, error) {
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })

	var hpc []interval
	var stats queueStats
	prevStart := 0.0 // strict FCFS: starts never go backwards

	for i, j := range ordered {
		if j.NP > slots {
			return queueStats{}, fmt.Errorf("oracle: job %d needs %d slots, cluster has %d", i, j.NP, slots)
		}
		// Earliest feasible start: walk the candidate times (submit,
		// previous start, ends of running jobs) until NP slots are free.
		start := j.Submit
		if prevStart > start {
			start = prevStart
		}
		ends := make([]float64, 0, len(hpc))
		for _, r := range hpc {
			if r.end > start {
				ends = append(ends, r.end)
			}
		}
		sort.Float64s(ends)
		for slots-usageAfter(hpc, start) < j.NP {
			if len(ends) == 0 {
				return queueStats{}, fmt.Errorf("oracle: scheduling inconsistency at job %d", i)
			}
			start = ends[0]
			ends = ends[1:]
		}
		wait := start - j.Submit

		hpc = append(hpc, interval{start: start, end: start + j.Runtime, slots: j.NP})
		prevStart = start
		stats.AvgWait += wait
		if wait > stats.MaxWait {
			stats.MaxWait = wait
		}
		stats.AvgSlowdown += (wait + j.Runtime) / j.Runtime
		if end := start + j.Runtime; end > stats.Makespan {
			stats.Makespan = end
		}
		stats.Jobs++
	}
	if stats.Jobs > 0 {
		stats.AvgWait /= float64(stats.Jobs)
		stats.AvgSlowdown /= float64(stats.Jobs)
	}
	return stats, nil
}

// oracleStats folds facility outcomes into queueStats in the oracle's
// exact accumulation order — stable-sort by submit time, sum waits and
// slowdowns in that order, divide once at the end — so a divergence
// between the two is a scheduling difference, not a summation-order
// artefact.
func oracleStats(outcomes []Outcome) queueStats {
	ordered := append([]Outcome(nil), outcomes...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })
	var stats queueStats
	for _, o := range ordered {
		stats.AvgWait += o.Wait
		if o.Wait > stats.MaxWait {
			stats.MaxWait = o.Wait
		}
		stats.AvgSlowdown += (o.Wait + o.Runtime) / o.Runtime
		if o.End > stats.Makespan {
			stats.Makespan = o.End
		}
		stats.Jobs++
	}
	if stats.Jobs > 0 {
		stats.AvgWait /= float64(stats.Jobs)
		stats.AvgSlowdown /= float64(stats.Jobs)
	}
	return stats
}

// TestOracleCrossValidation pins the facility's FCFS core to the
// independent small-N oracle: with backfill, fairshare, broker and spot
// all disabled, an event-driven facility run must reproduce
// fcfsOracle's stats bit-for-bit — same floats, not just close ones.
func TestOracleCrossValidation(t *testing.T) {
	const slots = 32
	for seed := uint64(0); seed < 12; seed++ {
		jobs := genJobs(t, seed, 80, 9, slots)
		for i := range jobs {
			jobs[i].Limit = 0 // oracle has no wall limits; 0 = exactly Runtime
		}

		f, err := New(Config{Slots: [NumPools]int{slots}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := oracleStats(res.Outcomes)

		want, err := fcfsOracle(jobs, slots)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}

		if got.Jobs != want.Jobs {
			t.Fatalf("seed %d: counts %d vs %d", seed, got.Jobs, want.Jobs)
		}
		bitEq := func(label string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: %s diverged from the oracle: %v (%016x) vs %v (%016x)",
					seed, label, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
		bitEq("AvgWait", got.AvgWait, want.AvgWait)
		bitEq("MaxWait", got.MaxWait, want.MaxWait)
		bitEq("Makespan", got.Makespan, want.Makespan)
		bitEq("AvgSlowdown", got.AvgSlowdown, want.AvgSlowdown)
	}
}

// TestOracleCrossValidationSimultaneousSubmits stresses the tie-break
// convention: equal submit times must resolve by submission order in
// both implementations (the oracle's stable sort, the facility's event
// sequence numbers).
func TestOracleCrossValidationSimultaneousSubmits(t *testing.T) {
	const slots = 8
	jobs := []Job{
		{Tenant: "a", NP: 8, Runtime: 100, Submit: 0},
		{Tenant: "b", NP: 4, Runtime: 50, Submit: 100}, // arrives exactly when slots free
		{Tenant: "c", NP: 4, Runtime: 25, Submit: 100},
		{Tenant: "d", NP: 8, Runtime: 10, Submit: 100},
		{Tenant: "e", NP: 2, Runtime: 75, Submit: 125},
	}
	f, err := New(Config{Slots: [NumPools]int{slots}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	got := oracleStats(res.Outcomes)

	want, err := fcfsOracle(jobs, slots)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.AvgWait) != math.Float64bits(want.AvgWait) ||
		math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		t.Fatalf("tie-break divergence: got %+v want %+v", got, want)
	}
	// The t=100 completion must be processed before the t=100 arrivals:
	// b and c start immediately.
	if res.Outcomes[1].Wait != 0 || res.Outcomes[2].Wait != 0 {
		t.Fatalf("same-time reuse failed: waits %g, %g", res.Outcomes[1].Wait, res.Outcomes[2].Wait)
	}
}
