package facility

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/iomodel"
)

// genJobs builds a seeded random workload for the property tests.
func genJobs(t *testing.T, seed uint64, jobs, tenants, slots int) []Job {
	t.Helper()
	out, err := Generate(WorkloadSpec{
		Seed: seed, Jobs: jobs, Tenants: tenants, Slots: slots,
		Utilization: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// staticTestBroker is a hand-built broker (no calibration runs) used by
// properties that only need routing to happen, not to be realistic.
func staticTestBroker() *Broker {
	return &Broker{
		Factors: map[string][NumPools]float64{
			"ep": {1, 1.1, 1.3},
			"cg": {1, 1.8, 2.6},
			"mg": {1, 1.5, 2.1},
			"ft": {1, 1.9, 2.8},
			"is": {1, 1.4, 1.9},
		},
		DefaultFactors: [NumPools]float64{1, 1.3, 2},
	}
}

func testSpot() *SpotConfig {
	return &SpotConfig{
		Plan: &fault.Plan{Outages: []fault.Outage{
			{Start: 1000, End: 1600}, {Start: 5000, End: 5400},
		}},
		Price:              0.56,
		CheckpointInterval: 600,
		CheckpointBytes:    1 << 24,
		FS:                 iomodel.NFSEC2(),
	}
}

// TestQuickBackfillNeverDelaysReservation is the EASY guarantee: with
// fairshare off, a blocked head's first recorded reservation is an upper
// bound on when it actually starts — backfilled jobs never push it back.
func TestQuickBackfillNeverDelaysReservation(t *testing.T) {
	prop := func(seed uint64, jn, dn uint8) bool {
		jobs := genJobs(t, seed, 20+int(jn)%80, 1+int(jn)%12, 16)
		cfg := Config{
			Slots:         [NumPools]int{16},
			Backfill:      true,
			BackfillDepth: 1 + int(dn)%100,
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range res.Outcomes {
			if o.Reserved > 0 && o.Start > o.Reserved {
				t.Logf("seed %d: job %d started %g after its reservation %g", seed, i, o.Start, o.Reserved)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFairshareRelabelInvariant: bijectively renaming every tenant
// (and carrying the weights along) must not change the schedule — the
// fairshare key is decayed usage, never the tenant name.
func TestQuickFairshareRelabelInvariant(t *testing.T) {
	prop := func(seed, salt uint64) bool {
		jobs := genJobs(t, seed, 60, 9, 16)
		relabeled := make([]Job, len(jobs))
		for i, j := range jobs {
			j.Tenant = fmt.Sprintf("%x-%s", salt, j.Tenant) // injective rename
			relabeled[i] = j
		}
		cfg := Config{Slots: [NumPools]int{16}, Backfill: true, Fairshare: true}
		f1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := f1.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := f2.Run(relabeled)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1.Outcomes {
			a, b := r1.Outcomes[i], r2.Outcomes[i]
			if math.Float64bits(a.Start) != math.Float64bits(b.Start) ||
				math.Float64bits(a.End) != math.Float64bits(b.End) ||
				a.Pool != b.Pool || a.State != b.State {
				t.Logf("seed %d salt %x: job %d diverged under relabeling: %+v vs %+v", seed, salt, i, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConservation: under every knob combination, each submitted
// job ends exactly once as completed or killed, times are ordered, the
// virtual clock is the max completion, and reruns are bit-identical.
func TestQuickConservation(t *testing.T) {
	prop := func(seed uint64, knobs uint8) bool {
		jobs := genJobs(t, seed, 70, 11, 16)
		cfg := Config{
			Slots:     [NumPools]int{16, 8, 8},
			Backfill:  knobs&1 != 0,
			Fairshare: knobs&2 != 0,
			Prices:    [NumPools]float64{0, 0.34, 0.68},
		}
		if knobs&4 != 0 {
			cfg.Broker = staticTestBroker()
		}
		if knobs&8 != 0 {
			cfg.Spot = testSpot()
		}
		run := func() *Result {
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
		res := run()
		completed, killed := 0, 0
		maxEnd := 0.0
		for i, o := range res.Outcomes {
			switch o.State {
			case StateCompleted:
				completed++
			case StateKilled:
				killed++
			default:
				t.Logf("seed %d knobs %x: job %d in state %s", seed, knobs, i, o.State)
				return false
			}
			if !(o.Submit <= o.Start && o.Start <= o.End) {
				t.Logf("seed %d knobs %x: job %d times unordered: %+v", seed, knobs, i, o)
				return false
			}
			if o.Wait < 0 || o.Cost < 0 || o.LostWork < 0 {
				t.Logf("seed %d knobs %x: job %d negative accounting: %+v", seed, knobs, i, o)
				return false
			}
			if o.End > maxEnd {
				maxEnd = o.End
			}
		}
		if completed+killed != len(jobs) {
			t.Logf("seed %d knobs %x: %d+%d != %d", seed, knobs, completed, killed, len(jobs))
			return false
		}
		if math.Float64bits(res.Clock) != math.Float64bits(maxEnd) {
			t.Logf("seed %d knobs %x: clock %g != max end %g", seed, knobs, res.Clock, maxEnd)
			return false
		}
		if res.Events < 2*len(jobs) {
			t.Logf("seed %d knobs %x: %d events for %d jobs", seed, knobs, res.Events, len(jobs))
			return false
		}
		if Digest(res) != Digest(run()) {
			t.Logf("seed %d knobs %x: rerun digest diverged", seed, knobs)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFairshareUsageDecays pins the share tracker arithmetic: usage
// halves every half-life and relative order is decay-invariant.
func TestQuickFairshareUsageDecays(t *testing.T) {
	prop := func(aRaw, bRaw uint16, dtRaw uint8) bool {
		a, b := float64(aRaw)+1, float64(bRaw)+1
		dt := float64(dtRaw) * 100
		s := newShareTracker(3600, nil)
		ua, ub := s.at(s.intern("a")), s.at(s.intern("b"))
		s.charge(ua, 0, a)
		s.charge(ub, 0, b)
		ua0, ub0 := ua.usageAt(0, s.half), ub.usageAt(0, s.half)
		ua1, ub1 := ua.usageAt(dt, s.half), ub.usageAt(dt, s.half)
		if (ua0 > ub0) != (ua1 > ub1) && ua1 != ub1 {
			return false // decay alone reordered two tenants
		}
		want := a * math.Exp2(-dt/3600)
		return math.Abs(ua1-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
