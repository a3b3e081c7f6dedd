package arrive_test

// The batch facility (internal/facility) is the simulator that consumes
// this package: its spot pool takes outage windows from SpotMarket's
// price path, and its cloudburst broker takes per-class factors from
// WorkloadProfile.Slowdown. These tests hold the market and the profiles
// to their scheduling guarantees as the facility runs them.

import (
	"math"
	"testing"

	"repro/internal/arrive"
	"repro/internal/facility"
	"repro/internal/ipm"
	"repro/internal/platform"
)

// spotRun runs one job of `hours` on `nodes` EC2 spot slots against
// market `seed` at `bid`, checkpointing every ckptHours (0 = restart from
// zero after each interruption). Checkpoints are free (no image to
// write), so only the bid and the interval shape the run. The HPC
// partition is one slot wide, so a job of two or more nodes can only run
// on the spot pool.
func spotRun(t *testing.T, seed uint64, hours float64, nodes int, bid, ckptHours, horizonHours float64) facility.Outcome {
	t.Helper()
	o, err := spotOutcome(seed, hours, nodes, bid, ckptHours, horizonHours)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func spotOutcome(seed uint64, hours float64, nodes int, bid, ckptHours, horizonHours float64) (facility.Outcome, error) {
	spot, err := facility.MarketSpot(seed, bid, horizonHours, 0)
	if err != nil {
		return facility.Outcome{}, err
	}
	spot.CheckpointInterval = ckptHours * 3600
	f, err := facility.New(facility.Config{
		Slots:  [facility.NumPools]int{facility.PoolHPC: 1, facility.PoolEC2: nodes},
		Broker: &facility.Broker{},
		Spot:   spot,
	})
	if err != nil {
		return facility.Outcome{}, err
	}
	res, err := f.Run([]facility.Job{{Tenant: "spot", Class: "spot", NP: nodes, Runtime: hours * 3600}})
	if err != nil {
		return facility.Outcome{}, err
	}
	return res.Outcomes[0], nil
}

// onDemandCost is what the same job costs at the market's on-demand rate.
func onDemandCost(m *arrive.SpotMarket, hours float64, nodes int) float64 {
	return hours * float64(nodes) * m.OnDemand
}

func TestSpotRunHighBidCompletesCheaply(t *testing.T) {
	m := arrive.NewSpotMarket(5)
	o := spotRun(t, 5, 24, 4, m.OnDemand*1.6, 1, 0)
	if o.Pool != facility.PoolEC2 || o.State != facility.StateCompleted {
		t.Fatalf("spot job ran on %s and ended %s", o.Pool, o.State)
	}
	if o.Interruptions != 0 || o.End != 24*3600 {
		t.Fatalf("bid above all spikes should run straight through: %+v", o)
	}
	od := onDemandCost(m, 24, 4)
	if savings := 1 - o.Cost/od; savings <= 0.3 {
		t.Fatalf("spot savings = %.2f, want substantial (>0.3)", savings)
	}
}

func TestSpotRunLowBidInterrupted(t *testing.T) {
	m := arrive.NewSpotMarket(5)
	// A bid barely above the floor gets outbid often.
	low := spotRun(t, 5, 48, 2, m.Floor+0.02, 1, 24*10)
	high := spotRun(t, 5, 48, 2, m.OnDemand*1.6, 1, 24*10)
	if low.Interruptions <= high.Interruptions {
		t.Fatalf("low bid should be interrupted more: %d vs %d", low.Interruptions, high.Interruptions)
	}
	if low.End <= high.End {
		t.Fatalf("low bid cannot finish sooner than high bid: %gs vs %gs", low.End, high.End)
	}
}

func TestCheckpointingLimitsLostWork(t *testing.T) {
	m := arrive.NewSpotMarket(13)
	bid := m.Mean + 0.05 // interrupted now and then
	with := spotRun(t, 13, 40, 2, bid, 1, 24*14)
	without := spotRun(t, 13, 40, 2, bid, 0, 24*14)
	if with.Interruptions == 0 {
		t.Fatal("seed 13 should interrupt a 40h job bidding just above the mean")
	}
	// No checkpoints => restarts from zero => at least as much lost work
	// and as many billed hours, and no earlier completion.
	if without.LostWork < with.LostWork {
		t.Fatalf("checkpoint-free run lost less work: %g vs %g", without.LostWork, with.LostWork)
	}
	if without.Cost < with.Cost {
		t.Fatalf("checkpoint-free run billed less: %g vs %g", without.Cost, with.Cost)
	}
	if without.End < with.End {
		t.Fatalf("checkpointing delayed completion: %gs vs %gs", with.End, without.End)
	}
}

func TestSpotRunValidation(t *testing.T) {
	m := arrive.NewSpotMarket(1)
	if _, err := spotOutcome(1, 0, 2, 1, 1, 0); err == nil {
		t.Fatal("zero-hour job should fail")
	}
	if _, err := spotOutcome(1, 1, 0, 1, 1, 0); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := spotOutcome(1, 1, 2, 0, 1, 0); err == nil {
		t.Fatal("zero bid should fail")
	}
	if _, err := m.InterruptionPlan(0, 0); err == nil {
		t.Fatal("InterruptionPlan must reject bid <= 0")
	}
}

func TestSpotRunValidatesNegativeKnobs(t *testing.T) {
	m := arrive.NewSpotMarket(1)
	if _, err := spotOutcome(1, 10, 2, 0.5, -1, 0); err == nil {
		t.Error("negative checkpoint interval must be rejected")
	}
	if _, err := spotOutcome(1, 10, 2, 0.5, 0, -5); err == nil {
		t.Error("negative horizon must be rejected")
	}
	if _, err := spotOutcome(1, 10, 2, 0, 0, 0); err == nil {
		t.Error("non-positive bid must be rejected")
	}
	if _, err := m.InterruptionPlan(0, 0); err == nil {
		t.Error("InterruptionPlan must reject bid <= 0")
	}
	if _, err := m.InterruptionPlan(0.5, -1); err == nil {
		t.Error("InterruptionPlan must reject negative maxHours")
	}
}

// TestBestBidCompletesAndSaves: the cheapest checkpointed bid between
// the floor and on-demand that finishes a day-long job within a week
// exists and undercuts on-demand.
func TestBestBidCompletesAndSaves(t *testing.T) {
	m := arrive.NewSpotMarket(21)
	const hours, nodes, horizon = 24, 4, 24 * 7
	bestBid, found := 0.0, false
	var best facility.Outcome
	for i := 0; ; i++ {
		bid := m.Floor + 0.05*float64(i)
		if bid > m.OnDemand*1.05 {
			break
		}
		o := spotRun(t, 21, hours, nodes, bid, 1, horizon)
		if o.End <= horizon*3600 && (!found || o.Cost < best.Cost) {
			bestBid, best, found = bid, o, true
		}
	}
	if !found {
		t.Fatal("no bid completes within the week")
	}
	if bestBid <= 0 || bestBid > m.OnDemand*1.05+1e-9 {
		t.Fatalf("bid out of range: %v", bestBid)
	}
	if best.Cost >= onDemandCost(m, hours, nodes) {
		t.Fatalf("best bid %v should save money: %+v", bestBid, best)
	}
}

// FuzzSpotRun checks a spot job's invariants over arbitrary markets,
// bids, job sizes and checkpoint intervals: never a negative cost or
// lost work, no completion before the job's own length, a rerun is
// identical, and free checkpoints never finish later than restarting
// from zero against the same price path.
func FuzzSpotRun(f *testing.F) {
	f.Add(uint64(1), float64(24), uint8(4), float64(0.6), float64(1))
	f.Add(uint64(2), float64(100), uint8(2), float64(0.35), float64(0)) // low bid, no ckpt
	f.Add(uint64(3), float64(5), uint8(16), float64(2.0), float64(8))
	f.Add(uint64(7), float64(60), uint8(1), float64(0.45), float64(3))
	f.Fuzz(func(t *testing.T, seed uint64, hours float64, nodes8 uint8, bid, ckpt float64) {
		// Sanitise into the valid domain; validation has its own tests.
		// Two or more nodes keep the job off the one-slot HPC partition.
		hours = 0.5 + math.Min(math.Abs(hours), 168)
		nodes := 2 + int(nodes8%15)
		bid = 0.05 + math.Min(math.Abs(bid), 3)
		ckpt = math.Min(math.Abs(ckpt), 12)
		if ckpt > 0 && ckpt < 1.0/60 {
			ckpt += 1.0 / 60 // bound the walk: at most one checkpoint a minute
		}
		if math.IsNaN(hours + bid + ckpt) {
			return
		}

		out, err := spotOutcome(seed, hours, nodes, bid, ckpt, 0)
		if err != nil {
			t.Fatalf("valid inputs rejected: %v", err)
		}
		if out.Pool != facility.PoolEC2 || out.State != facility.StateCompleted {
			t.Fatalf("spot job ran on %s and ended %s", out.Pool, out.State)
		}
		if out.Cost < 0 || out.LostWork < 0 || out.Interruptions < 0 {
			t.Fatalf("negative accounting: %+v", out)
		}
		if out.Interruptions == 0 && out.LostWork != 0 {
			t.Fatalf("work lost without an interruption: %+v", out)
		}
		if out.End < hours*3600 {
			t.Fatalf("job of %gh completed in %gh of wall time", hours, out.End/3600)
		}

		// Checkpointing can only help: against the identical price path, a
		// checkpointed attempt finishes no later than restart-from-zero.
		if ckpt > 0 {
			zero, err := spotOutcome(seed, hours, nodes, bid, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.End > zero.End {
				t.Fatalf("checkpointing made the run slower: ckpt=%+v zero=%+v", out, zero)
			}
		}

		// Determinism: the outcome is a pure function of its inputs.
		again, err := spotOutcome(seed, hours, nodes, bid, ckpt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again != out {
			t.Fatalf("spot run not deterministic:\n%+v\n%+v", out, again)
		}
	})
}

// computeBound profiles a job of np ranks that only computes for an hour
// on Vayu; chatty profiles one that spends nearly all its time in
// small allreduces.
func computeBound(name string, np int) *arrive.WorkloadProfile {
	return &arrive.WorkloadProfile{
		Name: name, NP: np, ComputeSeconds: float64(np) * 3600,
		Source: platform.Vayu(), SourceRanksPerNode: 8,
	}
}

func chatty(name string, np int) *arrive.WorkloadProfile {
	const calls = 50000
	return &arrive.WorkloadProfile{
		Name: name, NP: np, ComputeSeconds: float64(np) * 10,
		Calls: map[string]ipm.CallStats{
			"Allreduce": {Count: np * calls, Time: float64(np) * 30, Bytes: int64(np) * calls * 8},
		},
		AvgMsgBytes: 8,
		Source:      platform.Vayu(), SourceRanksPerNode: 8,
	}
}

// burstBroker sets each profile's EC2 factor to its predicted slowdown
// there, ARRIVE-F style, with the candidate filter at maxSlowdown.
func burstBroker(maxSlowdown float64, ws ...*arrive.WorkloadProfile) *facility.Broker {
	b := &facility.Broker{Factors: map[string][facility.NumPools]float64{}, MaxSlowdown: maxSlowdown}
	for _, w := range ws {
		b.Factors[w.Name] = [facility.NumPools]float64{facility.PoolEC2: w.Slowdown(platform.EC2())}
	}
	return b
}

func runFacility(t *testing.T, cfg facility.Config, jobs []facility.Job) *facility.Result {
	t.Helper()
	f, err := facility.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQueueBurstingReducesWait(t *testing.T) {
	// A saturated queue: many compute-bound jobs on a small cluster.
	w := computeBound("sweep", 32)
	if slow := w.Slowdown(platform.EC2()); !(slow <= 1.5) {
		t.Fatalf("compute-bound EC2 slowdown %g, want a burst candidate", slow)
	}
	var jobs []facility.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, facility.Job{Tenant: "t", Class: w.Name, NP: 32, Runtime: 3600, Submit: float64(i * 60)})
	}
	base := facility.Summarize(runFacility(t, facility.Config{
		Slots: [facility.NumPools]int{facility.PoolHPC: 64},
	}, jobs).Outcomes, 0)
	burst := facility.Summarize(runFacility(t, facility.Config{
		Slots:  [facility.NumPools]int{facility.PoolHPC: 64, facility.PoolEC2: 1024},
		Broker: burstBroker(1.5, w),
		Prices: [facility.NumPools]float64{facility.PoolEC2: 0.68},
	}, jobs).Outcomes, 0)
	if base.AvgWait <= 0 {
		t.Fatalf("saturated baseline should have waits, got %+v", base)
	}
	if burst.ByPool[facility.PoolEC2] == 0 {
		t.Fatal("broker should burst some jobs")
	}
	improvement := (base.AvgWait - burst.AvgWait) / base.AvgWait
	t.Logf("avg wait: base=%.0fs burst=%.0fs (%.0f%% better, %d jobs burst)",
		base.AvgWait, burst.AvgWait, improvement*100, burst.ByPool[facility.PoolEC2])
	// The ARRIVE-F paper reports ~33% improvement; we only need a clear win.
	if improvement < 0.2 {
		t.Fatalf("bursting should improve waits by >= 20%%, got %.0f%%", improvement*100)
	}
	if burst.Cost <= 0 {
		t.Fatal("burst jobs should be billed for cloud time")
	}
}

func TestQueueSlowJobsStayHome(t *testing.T) {
	w := chatty("chatty", 16)
	if slow := w.Slowdown(platform.EC2()); !(slow > 1.5) {
		t.Fatalf("communication-bound EC2 slowdown %g, want it filtered", slow)
	}
	jobs := []facility.Job{
		{Tenant: "a", Class: w.Name, NP: 16, Runtime: 1000, Submit: 0},
		{Tenant: "b", Class: w.Name, NP: 16, Runtime: 1000, Submit: 1},
	}
	res := runFacility(t, facility.Config{
		Slots:  [facility.NumPools]int{facility.PoolHPC: 16, facility.PoolEC2: 1024},
		Broker: burstBroker(1.5, w),
	}, jobs)
	for _, o := range res.Outcomes {
		if o.Pool != facility.PoolHPC {
			t.Fatalf("communication-bound job %d burst to %s", o.Seq, o.Pool)
		}
	}
}

func TestQueueErrors(t *testing.T) {
	if _, err := facility.New(facility.Config{}); err == nil {
		t.Fatal("zero capacity should fail")
	}
	f, err := facility.New(facility.Config{Slots: [facility.NumPools]int{facility.PoolHPC: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run([]facility.Job{{Tenant: "big", NP: 128, Runtime: 1}}); err == nil {
		t.Fatal("oversized job should fail")
	}
}

func TestQueueLimitedCloudSlots(t *testing.T) {
	w := computeBound("j", 8)
	var jobs []facility.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, facility.Job{Tenant: "t", Class: w.Name, NP: 8, Runtime: 100})
	}
	res := runFacility(t, facility.Config{
		Slots:  [facility.NumPools]int{facility.PoolHPC: 8, facility.PoolEC2: 16},
		Broker: burstBroker(2, w),
	}, jobs)
	// Only 16 cloud slots: at most two 8-rank jobs run there at once.
	for _, o := range res.Outcomes {
		if o.Pool != facility.PoolEC2 {
			continue
		}
		busy := 0
		for _, p := range res.Outcomes {
			if p.Pool == facility.PoolEC2 && p.Start <= o.Start && o.Start < p.End {
				busy++
			}
		}
		if busy > 2 {
			t.Fatalf("%d jobs on 16 cloud slots at t=%g", busy, o.Start)
		}
	}
	initial := 0
	for _, o := range res.Outcomes {
		if o.Pool == facility.PoolEC2 && o.Start == 0 {
			initial++
		}
	}
	if initial == 0 || initial > 2 {
		t.Fatalf("%d jobs burst at t=0, want 1 or 2 on 16 cloud slots", initial)
	}
}
