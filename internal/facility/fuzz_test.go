package facility

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzWorkloadGen feeds arbitrary spec parameters to the generator and
// checks its contract: valid specs produce valid, arrival-ordered jobs,
// the stream is a pure function of the spec (two calls, identical
// output), and the workload streamed in windows of a fuzzed size is
// Generate's slice job for job.
func FuzzWorkloadGen(f *testing.F) {
	f.Add(uint64(0), uint16(100), uint16(10), uint16(64), uint16(0), false, uint16(7))
	f.Add(uint64(42), uint16(1000), uint16(200), uint16(128), uint16(32), true, uint16(1023))
	f.Add(uint64(7), uint16(1), uint16(1), uint16(1), uint16(1), false, uint16(0))
	f.Add(uint64(9999), uint16(300), uint16(5), uint16(16), uint16(8), true, uint16(64))
	f.Fuzz(func(t *testing.T, seed uint64, jobs, tenants, slots, maxNP uint16, fixedHorizon bool, win uint16) {
		spec := WorkloadSpec{
			Seed:    seed,
			Jobs:    1 + int(jobs)%2000,
			Tenants: 1 + int(tenants)%500,
			Slots:   1 + int(slots)%512,
		}
		spec.MaxNP = int(maxNP) % (spec.Slots + 1)
		if fixedHorizon {
			spec.Horizon = 10000
		}
		a, err := Generate(spec)
		if err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
		b, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != spec.Jobs || len(b) != spec.Jobs {
			t.Fatalf("generated %d/%d jobs, want %d", len(a), len(b), spec.Jobs)
		}
		prev := 0.0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("job %d not deterministic: %+v vs %+v", i, a[i], b[i])
			}
			j := a[i]
			if j.Submit < prev {
				t.Fatalf("job %d: arrivals out of order (%g < %g)", i, j.Submit, prev)
			}
			prev = j.Submit
			if j.NP < 1 || j.NP > spec.Slots {
				t.Fatalf("job %d: np %d outside [1,%d]", i, j.NP, spec.Slots)
			}
			if j.Runtime <= 0 || j.Limit <= 0 || j.Tenant == "" || j.Class == "" {
				t.Fatalf("job %d malformed: %+v", i, j)
			}
		}
		w, err := NewWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		window := 1 + int(win)%spec.Jobs
		for i, arr := range streamJobs(w, window) {
			if arr.job != a[i] || arr.seq != i {
				t.Fatalf("window %d: streamed job %d is %+v (seq %d), Generate has %+v", window, i, arr.job, arr.seq, a[i])
			}
		}
	})
}

// fuzzConfig decodes facility knobs from 8 fuzz bytes.
func fuzzConfig(knobs []byte) Config {
	cfg := Config{
		Slots:  [NumPools]int{1 + int(knobs[0])%64, int(knobs[1]) % 32, int(knobs[2]) % 32},
		Prices: [NumPools]float64{0, 0.34, 0.68},
	}
	if knobs[3]&1 != 0 {
		cfg.Backfill = true
		cfg.BackfillDepth = int(knobs[4]) % 128
	}
	if knobs[3]&2 != 0 {
		cfg.Fairshare = true
		cfg.FairshareHalfLife = float64(1+int(knobs[5])) * 60
	}
	if knobs[3]&4 != 0 {
		cfg.Broker = staticTestBroker()
	}
	if knobs[3]&8 != 0 {
		cfg.Spot = testSpot()
	}
	return cfg
}

// FuzzFacility drives a whole facility run from fuzz input: the first 8
// bytes select config knobs, the rest is parsed as a job trace. Any
// trace the parser accepts must either be rejected by job validation or
// run to completion — no panics, no stuck jobs — and the run must be
// deterministic (identical digests on a rerun).
func FuzzFacility(f *testing.F) {
	jobsTrace := func(jobs []Job, seed uint64, knobs byte) []byte {
		buf := make([]byte, 8)
		buf[3] = knobs
		binary.BigEndian.PutUint32(buf[4:], uint32(seed))
		buf[0] = 32 // HPC slots knob
		buf[1] = 16
		buf[2] = 16
		return append(buf, FormatTrace(jobs)...)
	}
	seedTrace := func(seed uint64, n int, knobs byte) []byte {
		jobs, err := Generate(WorkloadSpec{Seed: seed, Jobs: n, Tenants: 5, Slots: 16})
		if err != nil {
			panic(err)
		}
		return jobsTrace(jobs, seed, knobs)
	}
	f.Add(seedTrace(1, 20, 0))
	f.Add(seedTrace(2, 40, 1))
	f.Add(seedTrace(3, 30, 3))
	f.Add(seedTrace(4, 25, 7))
	f.Add(seedTrace(5, 35, 15))
	// Out-of-order and tied arrivals (see arrivalOrderInputs), which no
	// generated trace exercises.
	for i, in := range arrivalOrderInputs(f) {
		if in.name == "reversed" || in.name == "tied" {
			f.Add(jobsTrace(in.jobs, uint64(6+i), 15))
		}
	}
	f.Add([]byte{16, 0, 0, 0, 0, 0, 0, 0, 't', ' ', 'e', 'p', ' ', '1', ' ', '5', ' ', '5', ' ', '0', '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		cfg := fuzzConfig(data[:8])
		jobs, err := ParseTrace(data[8:])
		if err != nil || len(jobs) == 0 {
			return
		}
		if len(jobs) > 256 {
			jobs = jobs[:256]
		}
		for _, j := range jobs {
			// A week-long horizon bounds the fuzz run's virtual work: a
			// 1e30-second spot job legitimately simulates 1e27 checkpoint
			// writes, which is correct but not a useful fuzz iteration.
			if j.Runtime > 7*86400 || j.Limit > 7*86400 || j.Submit > 7*86400 {
				return
			}
		}
		run := func() (*Result, error) {
			fac, err := New(cfg)
			if err != nil {
				t.Fatalf("fuzzConfig built an invalid config: %v", err)
			}
			return fac.Run(jobs)
		}
		res, err := run()
		if err != nil {
			// Job validation rejected the trace — fine, but it must do so
			// deterministically.
			if _, err2 := run(); err2 == nil {
				t.Fatalf("nondeterministic rejection: %v then success", err)
			}
			return
		}
		for i, o := range res.Outcomes {
			if o.State != StateCompleted && o.State != StateKilled {
				t.Fatalf("job %d stuck in %s", i, o.State)
			}
			if !(o.Submit <= o.Start && o.Start <= o.End) {
				t.Fatalf("job %d times unordered: %+v", i, o)
			}
		}
		res2, err := run()
		if err != nil {
			t.Fatalf("accepted then rejected: %v", err)
		}
		if Digest(res) != Digest(res2) {
			t.Fatal("rerun digest diverged")
		}
	})
}

// FuzzSpotConfig walks one spot job through a market-derived outage plan
// (SpotConfig.run) over random market seeds, bids, job lengths, start
// times and checkpoint settings, and checks the execution model's
// invariants: billed and lost time are never negative, the job never
// finishes before start+base, a rerun is bit-identical, and with free
// checkpoints a checkpointed job never finishes later than the same job
// restarting from zero.
func FuzzSpotConfig(f *testing.F) {
	f.Add(uint64(2012), 0.56, 87480.0, 0.0, 3600.0, uint8(4), uint8(1))
	f.Add(uint64(2012), 0.34, 87480.0, 0.0, 0.0, uint8(4), uint8(0))
	f.Add(uint64(11), 0.60, 3*86400.0, 5000.0, 600.0, uint8(32), uint8(13))
	f.Add(uint64(3), 2.56, 100.0, 7200.5, 61.0, uint8(1), uint8(2))
	f.Add(uint64(7), 0.45, 200000.0, 86400.0, 7200.0, uint8(16), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, bid, base, start, ck float64, np8, ck8 uint8) {
		// Sanitise into the valid domain; validation has its own tests.
		// Job lengths stay within a week and checkpoint intervals at or
		// above a minute, bounding the walk's segment count.
		bid = 0.05 + math.Min(math.Abs(bid), 3)
		base = 1 + math.Min(math.Abs(base), 7*86400)
		start = math.Min(math.Abs(start), 14*86400)
		ck = math.Min(math.Abs(ck), 86400)
		if ck > 0 && ck < 60 {
			ck += 60
		}
		np := 1 + int(np8%64)
		var ckBytes int64
		if ck8%2 == 1 {
			ckBytes = 1 << (16 + ck8%14)
		}
		if math.IsNaN(bid + base + start + ck) {
			return
		}

		spot, err := MarketSpot(seed, bid, 0, ckBytes)
		if err != nil {
			t.Fatalf("valid market rejected: %v", err)
		}
		spot.CheckpointInterval = ck
		r := spot.run(start, base, np)
		if r.billed < 0 || r.lost < 0 {
			t.Fatalf("negative accounting: %+v", r)
		}
		if r.end < start+base {
			t.Fatalf("job of %gs started at %g ended at %g, before %g", base, start, r.end, start+base)
		}
		if again := spot.run(start, base, np); again != r {
			t.Fatalf("rerun diverged:\n%+v\n%+v", r, again)
		}

		// Free checkpoints can only help: against the same outage plan, a
		// checkpointed job finishes no later than one restarting from zero.
		free := *spot
		free.CheckpointBytes = 0
		ckpted := free.run(start, base, np)
		free.CheckpointInterval = 0
		zero := free.run(start, base, np)
		if ckpted.end > zero.end {
			t.Fatalf("free checkpoints every %gs made the job later: %+v vs restart-from-zero %+v", ck, ckpted, zero)
		}
	})
}
