package facility

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/iomodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

func mustRun(t *testing.T, cfg Config, jobs []Job) *Result {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFCFSSequential(t *testing.T) {
	cfg := Config{Slots: [NumPools]int{4}}
	jobs := []Job{
		{Tenant: "a", NP: 4, Runtime: 100, Submit: 0},
		{Tenant: "b", NP: 4, Runtime: 50, Submit: 10},
	}
	res := mustRun(t, cfg, jobs)
	o := res.Outcomes
	if o[0].Start != 0 || o[0].End != 100 {
		t.Fatalf("job 0 ran [%g,%g], want [0,100]", o[0].Start, o[0].End)
	}
	if o[1].Start != 100 || o[1].End != 150 {
		t.Fatalf("job 1 ran [%g,%g], want [100,150]", o[1].Start, o[1].End)
	}
	if o[1].Wait != 90 {
		t.Fatalf("job 1 waited %g, want 90", o[1].Wait)
	}
	if res.Clock != 150 {
		t.Fatalf("clock %g, want 150", res.Clock)
	}
	if res.Events != 2*len(jobs) {
		t.Fatalf("events %d, want %d", res.Events, 2*len(jobs))
	}
}

func TestEASYBackfill(t *testing.T) {
	jobs := []Job{
		{Tenant: "a", NP: 2, Runtime: 100, Submit: 0}, // runs [0,100] on 2 of 4 slots
		{Tenant: "b", NP: 4, Runtime: 100, Submit: 1}, // blocked head, reservation 100
		{Tenant: "c", NP: 2, Runtime: 10, Submit: 2},  // fits the spare 2 slots, ends before 100
	}
	res := mustRun(t, Config{Slots: [NumPools]int{4}, Backfill: true}, jobs)
	o := res.Outcomes
	if o[2].Start != 2 || o[2].End != 12 {
		t.Fatalf("backfill candidate ran [%g,%g], want [2,12]", o[2].Start, o[2].End)
	}
	if o[1].Reserved != 100 {
		t.Fatalf("head reservation %g, want 100", o[1].Reserved)
	}
	if o[1].Start != 100 {
		t.Fatalf("head started %g, want exactly its reservation 100", o[1].Start)
	}

	// Without backfill the same workload is strictly FCFS: the short job
	// waits for the wide head.
	res = mustRun(t, Config{Slots: [NumPools]int{4}}, jobs)
	if got := res.Outcomes[2].Start; got != 200 {
		t.Fatalf("FCFS start %g, want 200", got)
	}
}

func TestBackfillRespectsReservationWindow(t *testing.T) {
	jobs := []Job{
		{Tenant: "a", NP: 2, Runtime: 100, Submit: 0},
		{Tenant: "b", NP: 4, Runtime: 100, Submit: 1}, // reservation at 100
		{Tenant: "c", NP: 3, Runtime: 50, Submit: 2},  // 3 > 2 free slots: cannot start
		{Tenant: "d", NP: 2, Runtime: 500, Submit: 3}, // fits now but would overrun 100 with no spare
	}
	res := mustRun(t, Config{Slots: [NumPools]int{4}, Backfill: true}, jobs)
	o := res.Outcomes
	if o[3].Start <= o[1].Start {
		t.Fatalf("long candidate started %g, before the reserved head at %g", o[3].Start, o[1].Start)
	}
	if o[1].Start != 100 {
		t.Fatalf("head started %g, want 100", o[1].Start)
	}
}

func TestKilledAtLimit(t *testing.T) {
	jobs := []Job{{Tenant: "a", NP: 1, Runtime: 100, Limit: 40, Submit: 0}}
	res := mustRun(t, Config{Slots: [NumPools]int{4}}, jobs)
	o := res.Outcomes[0]
	if o.State != StateKilled {
		t.Fatalf("state %s, want killed", o.State)
	}
	if o.End != 40 {
		t.Fatalf("killed at %g, want the 40s limit", o.End)
	}
}

func TestFairshareDeprioritisesHeavyTenant(t *testing.T) {
	jobs := []Job{
		{Tenant: "heavy", NP: 4, Runtime: 100, Submit: 0},
		{Tenant: "heavy", NP: 4, Runtime: 50, Submit: 1},
		{Tenant: "light", NP: 4, Runtime: 50, Submit: 2},
	}
	cfg := Config{Slots: [NumPools]int{4}}
	res := mustRun(t, cfg, jobs)
	if !(res.Outcomes[1].Start < res.Outcomes[2].Start) {
		t.Fatalf("FCFS should start heavy's second job first")
	}

	cfg.Fairshare = true
	res = mustRun(t, cfg, jobs)
	if !(res.Outcomes[2].Start < res.Outcomes[1].Start) {
		t.Fatalf("fairshare should start the light tenant first (heavy=%g light=%g)",
			res.Outcomes[1].Start, res.Outcomes[2].Start)
	}
}

func TestFairshareWeights(t *testing.T) {
	// Equal consumed usage; the heavier weight halves the normalised
	// usage, so the weighted tenant goes first.
	jobs := []Job{
		{Tenant: "a", NP: 2, Runtime: 100, Submit: 0},
		{Tenant: "b", NP: 2, Runtime: 100, Submit: 0},
		{Tenant: "a", NP: 4, Runtime: 10, Submit: 1},
		{Tenant: "b", NP: 4, Runtime: 10, Submit: 2},
	}
	cfg := Config{
		Slots:         [NumPools]int{4},
		Fairshare:     true,
		TenantWeights: map[string]float64{"b": 4},
	}
	res := mustRun(t, cfg, jobs)
	if !(res.Outcomes[3].Start < res.Outcomes[2].Start) {
		t.Fatalf("weighted tenant b should start first (a=%g b=%g)",
			res.Outcomes[2].Start, res.Outcomes[3].Start)
	}
}

func TestSpotRunArithmetic(t *testing.T) {
	// Free periodic checkpoints every 30s, one outage [50,60): the job
	// loses the 20s since its last checkpoint and resumes at 60.
	s := &SpotConfig{
		Plan:               &fault.Plan{Outages: []fault.Outage{{Start: 50, End: 60}}},
		Price:              0.56,
		CheckpointInterval: 30,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r := s.run(0, 100, 4)
	if r.interruptions != 1 {
		t.Fatalf("interruptions %d, want 1", r.interruptions)
	}
	if r.lost != 20 {
		t.Fatalf("lost %g, want 20", r.lost)
	}
	if r.end != 130 {
		t.Fatalf("end %g, want 130 (100 exec + 20 lost + 10 outage)", r.end)
	}
	if r.billed != 120 {
		t.Fatalf("billed %g, want 120 busy seconds", r.billed)
	}
}

func TestSpotNoCheckpointRestartsFromZero(t *testing.T) {
	s := &SpotConfig{Plan: &fault.Plan{Outages: []fault.Outage{{Start: 80, End: 90}}}}
	r := s.run(0, 100, 4)
	if r.lost != 80 {
		t.Fatalf("lost %g, want all 80 pre-outage seconds", r.lost)
	}
	if r.end != 190 {
		t.Fatalf("end %g, want 190 (80 lost + 10 outage + 100 rerun)", r.end)
	}
}

func TestSpotCheckpointIOCharged(t *testing.T) {
	fs := iomodel.NFSEC2()
	s := &SpotConfig{
		Plan:               &fault.Plan{Outages: []fault.Outage{{Start: 50, End: 60}}},
		CheckpointInterval: 30,
		CheckpointBytes:    1 << 28,
		FS:                 fs,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r := s.run(0, 100, 4)
	ck := fs.CheckpointSeconds(1<<28, 4)
	restore := fs.ReadSeconds(1<<28, 4)
	if r.interruptions != 1 {
		t.Fatalf("interruptions %d, want 1", r.interruptions)
	}
	// Busy time = 100 exec + lost work + checkpoint writes + one restore.
	wantMin := 100 + r.lost + ck + restore
	if r.billed < wantMin {
		t.Fatalf("billed %g < %g: checkpoint I/O not charged", r.billed, wantMin)
	}
	if r.end <= 110 {
		t.Fatalf("end %g implausibly early given checkpoint costs", r.end)
	}
}

func TestSpotPoolFrozenDuringOutage(t *testing.T) {
	// A job routed to the spot pool during an outage must wait for the
	// window to close (via the wake event) rather than being lost.
	broker := &Broker{Factors: map[string][NumPools]float64{"ep": {1, 0, 1.1}}}
	cfg := Config{
		Slots:  [NumPools]int{1, 0, 8},
		Broker: broker,
		Spot: &SpotConfig{
			Plan:  &fault.Plan{Outages: []fault.Outage{{Start: 0, End: 500}}},
			Price: 0.56,
		},
	}
	jobs := []Job{
		{Tenant: "a", Class: "ep", NP: 1, Runtime: 10000, Submit: 0}, // occupies HPC
		{Tenant: "b", Class: "ep", NP: 4, Runtime: 100, Submit: 10},  // must go spot, during outage
	}
	res := mustRun(t, cfg, jobs)
	o := res.Outcomes[1]
	if o.Pool != PoolEC2 {
		t.Fatalf("job 1 on %s, want ec2", o.Pool)
	}
	if o.Start != 500 {
		t.Fatalf("job 1 started %g, want 500 (outage end)", o.Start)
	}
}

func TestBrokerRouting(t *testing.T) {
	broker := &Broker{
		Factors: map[string][NumPools]float64{
			"ep": {1, 1.2, 1.5},
			"cg": {1, 4, 5}, // too slow off-facility: MaxSlowdown filter
		},
	}
	cfg := Config{
		Slots:  [NumPools]int{4, 8, 16},
		Broker: broker,
		Prices: [NumPools]float64{0, 0.34, 0.68},
	}
	jobs := []Job{
		{Tenant: "x", Class: "ep", NP: 4, Runtime: 10000, Submit: 0}, // saturates HPC
		{Tenant: "y", Class: "ep", NP: 2, Runtime: 100, Submit: 1},   // cheap to offload
		{Tenant: "z", Class: "cg", NP: 2, Runtime: 100, Submit: 2},   // filtered: stays HPC
	}
	res := mustRun(t, cfg, jobs)
	if got := res.Outcomes[1].Pool; got != PoolDCC {
		t.Fatalf("ep job routed to %s, want dcc", got)
	}
	if got := res.Outcomes[2].Pool; got != PoolHPC {
		t.Fatalf("cg job routed to %s, want vayu (slowdown filter)", got)
	}
	if res.Outcomes[1].Cost <= 0 {
		t.Fatalf("offloaded job billed %g, want positive", res.Outcomes[1].Cost)
	}
	if res.Outcomes[1].Service != 100*1.2 {
		t.Fatalf("offloaded service %g, want factor-scaled 120", res.Outcomes[1].Service)
	}
}

// TestBrokerBurstingReducesWait is the cloudburst claim on the facility:
// on a saturated HPC partition, a broker with cloud-friendly factors
// gives a strictly lower mean wait than static placement of the same
// jobs. A small EC2 pool still bursts, but never runs more slots at once
// than it has.
func TestBrokerBurstingReducesWait(t *testing.T) {
	var jobs []Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, Job{Tenant: "t", Class: "ep", NP: 32, Runtime: 3600, Submit: float64(i * 60)})
	}
	base := Summarize(mustRun(t, Config{Slots: [NumPools]int{64}}, jobs).Outcomes, 0)
	if base.AvgWait <= 0 {
		t.Fatalf("saturated baseline should have waits, got %+v", base)
	}
	broker := &Broker{Factors: map[string][NumPools]float64{"ep": {1, 0, 1.2}}, MaxSlowdown: 1.5}
	for _, ec2 := range []int{1024, 64} {
		cfg := Config{
			Slots:  [NumPools]int{PoolHPC: 64, PoolEC2: ec2},
			Broker: broker,
			Prices: [NumPools]float64{PoolEC2: 0.68},
		}
		res := mustRun(t, cfg, jobs)
		burst := Summarize(res.Outcomes, 0)
		if burst.ByPool[PoolEC2] == 0 || burst.Cost <= 0 {
			t.Fatalf("ec2=%d: no job burst to the cloud: %+v", ec2, burst)
		}
		if !(burst.AvgWait < base.AvgWait) {
			t.Fatalf("ec2=%d: bursting did not cut the mean wait: %g vs %g", ec2, burst.AvgWait, base.AvgWait)
		}
		for _, o := range res.Outcomes {
			if o.Pool != PoolEC2 {
				continue
			}
			busy := 0
			for _, p := range res.Outcomes {
				if p.Pool == PoolEC2 && p.Start <= o.Start && o.Start < p.End {
					busy += p.NP
				}
			}
			if busy > ec2 {
				t.Fatalf("ec2=%d: %d slots busy at t=%g", ec2, busy, o.Start)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},                                 // no HPC slots
		{Slots: [NumPools]int{4, -1, 0}},   // negative pool
		{Slots: [NumPools]int{4}, Tau: -1}, // negative knob
		{Slots: [NumPools]int{4}, Prices: [NumPools]float64{0, -1, 0}},
		{Slots: [NumPools]int{4}, TenantWeights: map[string]float64{"a": 0}},
		{Slots: [NumPools]int{4}, Spot: &SpotConfig{Price: -1}},
		{Slots: [NumPools]int{4}, Broker: &Broker{MaxSlowdown: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: want validation error", i)
		}
	}
}

func TestJobValidation(t *testing.T) {
	cfg := Config{Slots: [NumPools]int{4}}
	bad := []Job{
		{Tenant: "a", NP: 0, Runtime: 1},
		{Tenant: "a", NP: 8, Runtime: 1}, // wider than the HPC partition
		{Tenant: "a", NP: 1, Runtime: 0}, // no runtime
		{Tenant: "a", NP: 1, Runtime: 1, Submit: -1},
		{Tenant: "", NP: 1, Runtime: 1},
	}
	for i, j := range bad {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run([]Job{j}); err == nil {
			t.Errorf("job %d: want validation error", i)
		}
	}
}

// TestRunErrorMessages pins what a failed run says. Reusing a Facility
// must name the single-use contract, not a symptom of the first run's
// leftover state (which read as a virtual-clock regression).
func TestRunErrorMessages(t *testing.T) {
	jobs, err := Generate(WorkloadSpec{Seed: 1, Jobs: 50, Tenants: 5, Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		runs [][]Job // each run on the same Facility; the last must fail
		want string
	}{
		{"second run", [][]Job{jobs, jobs},
			"facility: Run called twice on one Facility; build a new one with New"},
		{"run after a rejected run", [][]Job{{{Tenant: "", NP: 1, Runtime: 1}}, jobs},
			"facility: Run called twice on one Facility; build a new one with New"},
	}
	for _, c := range cases {
		f, err := New(Config{Slots: [NumPools]int{64}})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range c.runs {
			_, err = f.Run(run)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	meter := &sim.Meter{}
	cfg := Config{Slots: [NumPools]int{4}, Backfill: true, Metrics: reg, Meter: meter}
	jobs := []Job{
		{Tenant: "a", NP: 2, Runtime: 100, Submit: 0},
		{Tenant: "b", NP: 4, Runtime: 100, Submit: 1},
		{Tenant: "c", NP: 2, Runtime: 10, Submit: 2},
		{Tenant: "d", NP: 1, Runtime: 100, Limit: 10, Submit: 3},
	}
	res := mustRun(t, cfg, jobs)
	checks := map[string]int64{
		"facility_jobs_submitted_total": 4,
		"facility_jobs_started_total":   4,
		"facility_jobs_completed_total": 3,
		"facility_jobs_killed_total":    1,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Counter("facility_jobs_backfilled_total", "").Value(); got == 0 {
		t.Errorf("no backfills counted")
	}
	if meter.Total() != res.Clock {
		t.Errorf("meter %g, want makespan %g", meter.Total(), res.Clock)
	}
}

// TestMetricsMatchOutcomes runs every knob — backfill, fairshare, a
// broker and a spot plan — and requires the registry's facility counters
// and wait histogram, merged once when the run returns, to equal the
// totals recomputed from the emitted outcomes. A second Run on the same
// facility fails and must leave the registry exactly as it was.
func TestMetricsMatchOutcomes(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Slots: [NumPools]int{32, 8, 8}, Backfill: true, Fairshare: true,
		Broker: staticTestBroker(), Spot: testSpot(), Prices: [NumPools]float64{0, 0.34, 0.68},
		Metrics: reg,
	}
	jobs := genJobs(t, 11, 1000, 12, 32)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var completed, killed, interruptions, waitSum int64
	for _, o := range res.Outcomes {
		if o.State == StateKilled {
			killed++
		} else {
			completed++
		}
		interruptions += int64(o.Interruptions)
		waitSum += obs.Nanoseconds(o.Wait)
	}
	n := int64(len(jobs))
	for name, want := range map[string]int64{
		"facility_jobs_submitted_total":     n,
		"facility_jobs_started_total":       n,
		"facility_jobs_completed_total":     completed,
		"facility_jobs_killed_total":        killed,
		"facility_spot_interruptions_total": interruptions,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	waits := reg.Histogram("facility_queue_wait_seconds", "")
	if waits.Count() != n || waits.Sum() != waitSum {
		t.Errorf("facility_queue_wait_seconds: count %d sum %d, want %d and %d", waits.Count(), waits.Sum(), n, waitSum)
	}
	if interruptions == 0 || killed == 0 {
		t.Errorf("workload exercises too little: %d interruptions, %d kills", interruptions, killed)
	}
	if got := reg.Counter("facility_jobs_backfilled_total", "").Value(); got == 0 {
		t.Errorf("no backfills counted")
	}
	refined := reg.VolatileCounter("facility_reservations_refined_total", "").Value()
	if by := reg.VolatileHistogram("facility_reservation_refinement_seconds", ""); by.Count() != refined {
		t.Errorf("%d reservation refinements counted, %d improvements observed", refined, by.Count())
	}

	before := reg.Snapshot(true)
	if _, err := f.Run(jobs); err == nil {
		t.Fatal("second Run on one facility succeeded")
	}
	if after := reg.Snapshot(true); !reflect.DeepEqual(after, before) {
		t.Errorf("failed second Run changed the registry:\nbefore %v\nafter  %v", before, after)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	spec := WorkloadSpec{Seed: 7, Jobs: 500, Tenants: 40, Slots: 128}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different workloads")
	}
	prev := 0.0
	tenants := map[string]bool{}
	for i, j := range a {
		if j.Submit < prev {
			t.Fatalf("job %d: submit %g before %g", i, j.Submit, prev)
		}
		prev = j.Submit
		if j.NP < 1 || j.NP > 64 {
			t.Fatalf("job %d: np %d out of range", i, j.NP)
		}
		if j.Runtime <= 0 || j.Limit <= 0 {
			t.Fatalf("job %d: non-positive runtime/limit", i)
		}
		tenants[j.Tenant] = true
	}
	if len(tenants) < 20 {
		t.Fatalf("only %d distinct tenants in 500 jobs from 40", len(tenants))
	}

	spec.Seed = 8
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical workloads")
	}

	// An explicit class list must name a class; an empty one is an
	// error, not a panic at the first draw.
	if _, err := Generate(WorkloadSpec{Seed: 1, Jobs: 10, Tenants: 2, Slots: 8, Classes: []string{}}); err == nil {
		t.Fatal("empty explicit class list accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	jobs, err := Generate(WorkloadSpec{Seed: 3, Jobs: 50, Tenants: 5, Slots: 32})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(FormatTrace(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, back) {
		t.Fatal("trace round-trip not identity")
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, trace := range []string{
		"a b c",          // wrong arity
		"t ep x 1 1 1",   // bad np
		"t ep 1 one 1 1", // bad float
	} {
		if _, err := ParseTrace([]byte(trace)); err == nil {
			t.Errorf("trace %q: want parse error", trace)
		}
	}
	jobs, err := ParseTrace([]byte("# comment\n\nt ep 2 10 20 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].NP != 2 {
		t.Fatalf("parsed %+v", jobs)
	}
}

func TestMarketSpot(t *testing.T) {
	s, err := MarketSpot(11, 0.60, 24*7, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plan.Outages) == 0 {
		t.Fatal("a 0.60 bid against the 2011 market should see outages in a week")
	}
	for _, o := range s.Plan.Outages {
		if math.Mod(o.Start, 3600) != 0 || math.Mod(o.End, 3600) != 0 {
			t.Fatalf("outage [%g,%g] not on hour boundaries in seconds", o.Start, o.End)
		}
	}
	if s.Price != 0.56 {
		t.Fatalf("spot price %g, want the market mean 0.56", s.Price)
	}

	// Outages grow as the bid falls: a bid above every spike is never
	// outbid, a bid just above the floor is outbid for longer than 0.60.
	high, err := MarketSpot(11, 3.2, 24*7, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if len(high.Plan.Outages) != 0 {
		t.Fatalf("a bid above every spike saw %d outages", len(high.Plan.Outages))
	}
	low, err := MarketSpot(11, 0.32, 24*7, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	outage := func(c *SpotConfig) (sum float64) {
		for _, o := range c.Plan.Outages {
			sum += o.End - o.Start
		}
		return sum
	}
	if !(outage(low) > outage(s)) {
		t.Fatalf("floor bid outbid for %gs, 0.60 bid for %gs", outage(low), outage(s))
	}
}

func TestSummarize(t *testing.T) {
	jobs, err := Generate(WorkloadSpec{Seed: 5, Jobs: 300, Tenants: 30, Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{Slots: [NumPools]int{64}, Backfill: true}, jobs)
	s := Summarize(res.Outcomes, 0)
	if s.Jobs != 300 || s.Completed+s.Killed != 300 {
		t.Fatalf("summary counts %+v", s)
	}
	if s.ByPool[PoolHPC] != 300 || s.CloudShare != 0 {
		t.Fatalf("static placement leaked off-pool: %+v", s)
	}
	if s.WaitP50 > s.WaitP90 || s.WaitP90 > s.WaitP99 || s.WaitP99 > s.MaxWait {
		t.Fatalf("wait quantiles not ordered: %+v", s)
	}
	if s.SlowMean < 1 || s.SlowP99 < s.SlowMean {
		t.Fatalf("bounded slowdown stats malformed: %+v", s)
	}
}

func TestDigestSensitivity(t *testing.T) {
	jobs, err := Generate(WorkloadSpec{Seed: 5, Jobs: 100, Tenants: 10, Slots: 32})
	if err != nil {
		t.Fatal(err)
	}
	a := Digest(mustRun(t, Config{Slots: [NumPools]int{32}}, jobs))
	b := Digest(mustRun(t, Config{Slots: [NumPools]int{32}}, jobs))
	c := Digest(mustRun(t, Config{Slots: [NumPools]int{32}, Backfill: true}, jobs))
	if a != b {
		t.Fatal("identical runs, different digests")
	}
	if a == c {
		t.Fatal("backfill changed nothing? digests should differ")
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("digest %q not sha256 hex", a)
	}
}

// TestStreamDigestMatchesReference: StreamDigest hashes its records in
// blocks, so its sum must equal a plain sha256 over every record and the
// clock/events trailer, written one at a time — at no outcomes, one, and
// either side of each block boundary.
func TestStreamDigestMatchesReference(t *testing.T) {
	base := Outcome{
		Job:  Job{Tenant: "t0042", Class: "metum", NP: 64, Runtime: 1800, Limit: 2400, Submit: 12.5},
		Pool: PoolEC2, State: StateCompleted, Start: 20, End: 1900, Interruptions: 1, Cost: 3.5,
	}
	recLen := len(appendOutcome(nil, base))
	threshold := (digestBlock + recLen - 1) / recLen // outcomes that fill one block
	const clock, events = 1234.5, 99
	for _, n := range []int{0, 1, threshold - 1, threshold, threshold + 1, 3 * threshold} {
		d, ref := NewStreamDigest(), sha256.New()
		for i := 0; i < n; i++ {
			o := base
			o.Seq, o.End = i, base.End+float64(i)
			d.Observe(o)
			ref.Write(appendOutcome(nil, o))
		}
		trailer := binary.BigEndian.AppendUint64(nil, math.Float64bits(clock))
		ref.Write(binary.BigEndian.AppendUint64(trailer, events))
		if got, want := d.Sum(clock, events), fmt.Sprintf("%x", ref.Sum(nil)); got != want {
			t.Errorf("%d outcomes (block of %d): StreamDigest %s, reference %s", n, threshold, got, want)
		}
	}
}

func TestPoolAndStateStrings(t *testing.T) {
	if PoolHPC.String() != "vayu" || PoolDCC.String() != "dcc" || PoolEC2.String() != "ec2" {
		t.Fatal("pool names drifted")
	}
	if StateCompleted.String() != "completed" || StateKilled.String() != "killed" {
		t.Fatal("state names drifted")
	}
	if Pool(9).String() == "" || JobState(9).String() == "" {
		t.Fatal("out-of-range stringers should still render")
	}
}

func TestBoundedSlowdown(t *testing.T) {
	o := Outcome{Wait: 90, Service: 10}
	if got := o.BoundedSlowdown(10); got != 10 {
		t.Fatalf("slowdown %g, want 10", got)
	}
	// Sub-tau jobs are bounded by the tau denominator.
	o = Outcome{Wait: 5, Service: 1}
	if got := o.BoundedSlowdown(10); got != 1 {
		t.Fatalf("tiny job slowdown %g, want clamped to 1", got)
	}
}
