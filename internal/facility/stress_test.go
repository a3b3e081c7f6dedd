package facility

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// stressConfig turns every feature on at once: backfill, fairshare with
// uneven weights, a shared static broker and a spot plan with
// checkpointing. The broker pointer is deliberately shared between
// facilities in the concurrent test — Broker is read-only after
// Validate, and the race detector holds us to that.
func stressConfig(broker *Broker) Config {
	return Config{
		Slots:         [NumPools]int{256, 128, 128},
		Backfill:      true,
		Fairshare:     true,
		TenantWeights: map[string]float64{"t0000": 4, "t0001": 2},
		Broker:        broker,
		Spot:          testSpot(),
		Prices:        [NumPools]float64{0, 0.34, 0.68},
	}
}

// TestConcurrentFacilitiesRace runs several facilities in parallel
// goroutines against a shared read-only broker and per-goroutine metric
// registries, then checks each digest against a sequential reference
// run. Under -race this is the package's data-race sentinel: any hidden
// shared mutable state between facility instances trips the detector.
func TestConcurrentFacilitiesRace(t *testing.T) {
	const workers = 8
	jobsPer := 600
	if raceEnabled {
		jobsPer = 200
	}
	broker := staticTestBroker()
	if err := broker.Validate(); err != nil {
		t.Fatal(err)
	}

	workloads := make([][]Job, workers)
	want := make([]string, workers)
	for i := range workloads {
		workloads[i] = genJobs(t, uint64(1000+i), jobsPer, 40, 256)
		f, err := New(stressConfig(broker))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(workloads[i])
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		want[i] = Digest(res)
	}

	var wg sync.WaitGroup
	got := make([]string, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := stressConfig(broker)
			cfg.Metrics = obs.NewRegistry()
			cfg.Meter = &sim.Meter{}
			f, err := New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := f.Run(workloads[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = Digest(res)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("worker %d: concurrent digest diverged from sequential reference", i)
		}
	}
}

// TestScaleTenThousandJobs is the acceptance-scale run: ten thousand
// jobs from over a thousand tenants through a fully-featured facility,
// completing with exact conservation. Under -race the workload shrinks
// but stays four-digit so the event loop is still exercised at depth.
func TestScaleTenThousandJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	jobs, tenants := 10000, 1200
	if raceEnabled {
		jobs, tenants = 3000, 400
	}
	wl, err := Generate(WorkloadSpec{
		Seed:    42,
		Jobs:    jobs,
		Tenants: tenants,
		Slots:   512,
	})
	if err != nil {
		t.Fatal(err)
	}
	spot, err := MarketSpot(42, 0.60, 24*14, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Slots:     [NumPools]int{512, 256, 256},
		Backfill:  true,
		Fairshare: true,
		Broker:    staticTestBroker(),
		Spot:      spot,
		Prices:    [NumPools]float64{0, 0.34, 0.68},
		Metrics:   obs.NewRegistry(),
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res.Outcomes, 0)
	if sum.Completed+sum.Killed != jobs {
		t.Fatalf("conservation: %d+%d != %d", sum.Completed, sum.Killed, jobs)
	}
	if sum.Makespan <= 0 || sum.AvgWait < 0 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	// Every pool should see traffic at this scale with a broker routing.
	for p, n := range sum.ByPool {
		if n == 0 {
			t.Fatalf("pool %s received no jobs out of %d", Pool(p), jobs)
		}
	}

	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := f2.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(res) != Digest(res2) {
		t.Fatal("scale run digest not reproducible")
	}
}

// TestScaleHundredThousandJobs is the streaming stress run: 10^5 jobs
// from 10^4 tenants through the fully-featured facility, driven via
// RunStream so memory stays bounded by the in-flight set rather than
// the trace length. The size deliberately does NOT shrink under -race:
// this is the race detector's deep-soak over the incremental heap,
// release profile and slab recycling paths. Skipped in -short mode.
func TestScaleHundredThousandJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming stress test skipped in -short mode")
	}
	const jobs, tenants = 100000, 10000
	wl, err := NewWorkload(WorkloadSpec{
		Seed:    43,
		Jobs:    jobs,
		Tenants: tenants,
		Slots:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	spot, err := MarketSpot(43, 0.60, 24*14, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Slots:     [NumPools]int{2048, 1024, 1024},
		Backfill:  true,
		Fairshare: true,
		Broker:    staticTestBroker(),
		Spot:      spot,
		Prices:    [NumPools]float64{0, 0.34, 0.68},
		Metrics:   obs.NewRegistry(),
	}
	run := func() (Summary, string) {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ss := NewStreamSummary(0, 43)
		sd := NewStreamDigest()
		sr, err := f.RunStream(wl, func(o Outcome) {
			ss.Observe(o)
			sd.Observe(o)
		})
		if err != nil {
			t.Fatal(err)
		}
		return ss.Summary(), sd.Sum(sr.Clock, sr.Events)
	}
	sum, dig := run()
	if sum.Completed+sum.Killed != jobs {
		t.Fatalf("conservation: %d+%d != %d", sum.Completed, sum.Killed, jobs)
	}
	if sum.Makespan <= 0 || sum.AvgWait < 0 || sum.WaitP99 < sum.WaitP50 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	for p, n := range sum.ByPool {
		if n == 0 {
			t.Fatalf("pool %s received no jobs out of %d", Pool(p), jobs)
		}
	}
	if _, dig2 := run(); dig != dig2 {
		t.Fatal("streaming stress digest not reproducible")
	}
}
