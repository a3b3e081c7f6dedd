package facility

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// streamJobs collects a source's pass in windows of win arrivals.
func streamJobs(src JobSource, win int) []arrival {
	fill := src.open(true)
	out := make([]arrival, src.Len())
	for pos := 0; pos < len(out); pos += win {
		fill(out[pos:min(pos+win, len(out))])
	}
	return out
}

// streamSpecs are the workloads the stream tests cover: the built-in
// class mix at four- and six-digit tenancy, an explicit uniformly drawn
// class list, and specs that set the horizon, the utilization target
// and the slot cap.
var streamSpecs = []struct {
	name string
	spec WorkloadSpec
}{
	{"default-700-tenants", WorkloadSpec{Seed: 3, Jobs: 4000, Tenants: 700, Slots: 256}},
	{"default-1e5-tenants", WorkloadSpec{Seed: 5, Jobs: 20000, Tenants: 100000, Slots: 1024}},
	{"uniform", WorkloadSpec{Seed: 4, Jobs: 3000, Tenants: 3, Slots: 64, MaxNP: 16, Classes: []string{"metum", "ep", "zz"}}},
	{"horizon", WorkloadSpec{Seed: 6, Jobs: 2500, Tenants: 40, Slots: 128, Horizon: 86400}},
	{"utilization", WorkloadSpec{Seed: 7, Jobs: 2500, Tenants: 40, Slots: 128, Utilization: 0.7}},
	{"maxnp", WorkloadSpec{Seed: 8, Jobs: 2500, Tenants: 40, Slots: 128, MaxNP: 4}},
}

// TestWorkloadStreamMatchesGenerate: a generated workload streamed in
// windows of any size is Generate's slice job for job, each arrival
// carrying its job index as seq and, as its tenant index, the index
// whose name the job carries. Jobs over that slice stream the same jobs
// with first-arrival tenant indices.
func TestWorkloadStreamMatchesGenerate(t *testing.T) {
	for _, c := range streamSpecs {
		jobs, err := Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range []int{1, 7, 1023, 1024, 1025, len(jobs)} {
			for i, a := range streamJobs(w, win) {
				if a.job != jobs[i] || a.seq != i || w.names.name(int(a.tenant)) != a.job.Tenant {
					t.Fatalf("%s, window %d: arrival %d is %+v (tenant %d), Generate has %+v",
						c.name, win, i, a.job, a.tenant, jobs[i])
				}
			}
			first := map[string]int32{}
			for i, a := range streamJobs(Jobs(jobs), win) {
				if _, ok := first[a.job.Tenant]; !ok {
					first[a.job.Tenant] = int32(len(first))
				}
				if a.job != jobs[i] || a.seq != i || a.tenant != first[a.job.Tenant] {
					t.Fatalf("%s, window %d: Jobs arrival %d is %+v (seq %d, tenant %d)", c.name, win, i, a.job, a.seq, a.tenant)
				}
			}
		}
	}
}

// TestRunStreamWorkloadMatchesJobs: a run over the generated workload,
// whose tenant indices are Zipf ranks, and one over Jobs(Generate(...)),
// whose indices come from a name map in order of first arrival, emit
// the same outcome stream under both schedulers, with fairshare off and
// on, and with tenant weights, which a workload's accounts look up by
// name on first use.
func TestRunStreamWorkloadMatchesJobs(t *testing.T) {
	spec := WorkloadSpec{Seed: 9, Jobs: 3000, Tenants: 60, Slots: 32, MaxNP: 16}
	w, err := NewWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]float64{"t0000": 4, "t0003": 0.25, "t0017": 2, "absent": 8}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"backfill", Config{Slots: [NumPools]int{32}, Backfill: true}},
		{"fairshare", Config{Slots: [NumPools]int{32}, Backfill: true, Fairshare: true, FairshareHalfLife: 3600}},
		{"fairshare+weights", Config{Slots: [NumPools]int{32}, Backfill: true, Fairshare: true, TenantWeights: weights}},
		{"all-knobs", Config{
			Slots: [NumPools]int{32, 16, 16}, Backfill: true, BackfillDepth: 8,
			Fairshare: true, FairshareHalfLife: 1800, TenantWeights: weights,
			Broker: staticTestBroker(), Spot: testSpot(), Prices: [NumPools]float64{0, 0.34, 0.68},
		}},
	}
	digest := func(cfg Config, kind schedKind, src JobSource) string {
		cfg.sched = kind
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := NewStreamDigest()
		sr, err := f.RunStream(src, d.Observe)
		if err != nil {
			t.Fatal(err)
		}
		return d.Sum(sr.Clock, sr.Events)
	}
	for _, c := range configs {
		for _, kind := range []schedKind{schedHeap, schedSort} {
			if a, b := digest(c.cfg, kind, w), digest(c.cfg, kind, Jobs(jobs)); a != b {
				t.Errorf("%s (sched %d): workload stream digest %s, Jobs(Generate) %s", c.name, kind, a, b)
			}
		}
	}
}

// TestRunStreamInvalidJobMidStream: jobs are validated as their window
// fills, so a bad job two windows in fails the run with an error naming
// its index, after the outcomes of earlier jobs were emitted; Run
// returns no result.
func TestRunStreamInvalidJobMidStream(t *testing.T) {
	jobs, err := Generate(WorkloadSpec{Seed: 2, Jobs: 3000, Tenants: 10, Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		bad  int
		mod  func(*Job)
		want string
	}{
		{2500, func(j *Job) { j.NP = 0 }, "facility: job 2500: needs positive NP, got 0"},
		{2100, func(j *Job) { j.Runtime = math.NaN() }, "facility: job 2100: needs positive finite Runtime, got NaN"},
		{2999, func(j *Job) { j.Tenant = "" }, "facility: job 2999: needs a tenant"},
	}
	for _, c := range cases {
		bad := append([]Job(nil), jobs...)
		c.mod(&bad[c.bad])
		f, err := New(Config{Slots: [NumPools]int{64}, Backfill: true, Fairshare: true})
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		_, err = f.RunStream(Jobs(bad), func(Outcome) { emitted++ })
		if err == nil || err.Error() != c.want {
			t.Errorf("job %d: error %v, want %q", c.bad, err, c.want)
		}
		if emitted == 0 || emitted >= c.bad {
			t.Errorf("job %d: %d outcomes emitted before the error; want some, fewer than %d", c.bad, emitted, c.bad)
		}
		f, err = New(Config{Slots: [NumPools]int{64}})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := f.Run(bad); res != nil || err == nil || !strings.HasPrefix(err.Error(), "facility: job ") {
			t.Errorf("job %d: Run returned %v, %v; want nil and the job's error", c.bad, res, err)
		}
	}
}

// TestWorkloadStreamBytesPerJob bounds what a generated workload and a
// run over it allocate per job: the workload's columns (25 bytes a job)
// plus a run whose memory follows the in-flight set. It is measured as
// the growth from 4k to 16k jobs at 90% offered load, where the
// in-flight set is stationary. Materialising the workload as a []Job
// adds 64 bytes a job (measured 89.5 against 26).
func TestWorkloadStreamBytesPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	const maxBytesPerJob = 40
	cfg := Config{Slots: [NumPools]int{512}, Backfill: true, Fairshare: true}
	bytes := func(n int) uint64 {
		spec := WorkloadSpec{Seed: 5, Jobs: n, Tenants: 20, Slots: 512, Utilization: 0.9}
		run := func() {
			w, err := NewWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.RunStream(w, func(Outcome) {}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const small, big = 4000, 16000
	a, b := bytes(small), bytes(big)
	if per := (float64(b) - float64(a)) / (big - small); per > maxBytesPerJob {
		t.Errorf("generated stream: %d bytes at %d jobs, %d at %d: %.1f bytes per job, want <= %d",
			a, small, b, big, per, maxBytesPerJob)
	}
}
