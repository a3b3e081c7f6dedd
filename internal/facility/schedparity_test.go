package facility

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// The scheduler-parity battery: schedHeap (incremental structures) must
// reproduce schedSort (the retained sort-per-pass oracle) bit for bit —
// same outcomes, same digests, same completion order, same event count
// — across every knob combination. The log-domain priority keys, the
// lazy re-keying and the maintained release profile are all exact
// reformulations of the oracle's comparisons, so equality is required,
// not approximate.

// runSched runs jobs under the given scheduler kind, returning the full
// result and the emission (completion) order.
func runSched(t *testing.T, cfg Config, kind schedKind, jobs []Job) (*Result, []int) {
	t.Helper()
	cfg.sched = kind
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Outcomes: make([]Outcome, len(jobs))}
	var order []int
	sr, err := f.RunStream(Jobs(jobs), func(o Outcome) {
		order = append(order, o.Seq)
		res.Outcomes[o.Seq] = o
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Clock, res.Events = sr.Clock, sr.Events
	return res, order
}

// parityConfig builds the knob-combination configs both parity tests
// sweep: every subset of {backfill, fairshare, broker, spot}, with
// uneven tenant weights and a non-default half-life when fairshare is
// on and a shallow depth cap when backfill is on.
func parityConfig(knobs uint8) Config {
	cfg := Config{
		Slots:  [NumPools]int{32, 16, 16},
		Prices: [NumPools]float64{0, 0.34, 0.68},
	}
	if knobs&1 != 0 {
		cfg.Backfill = true
		cfg.BackfillDepth = 8
	}
	if knobs&2 != 0 {
		cfg.Fairshare = true
		cfg.FairshareHalfLife = 7200
		cfg.TenantWeights = map[string]float64{"t0000": 4, "t0001": 0.5}
	}
	if knobs&4 != 0 {
		cfg.Broker = staticTestBroker()
	}
	if knobs&8 != 0 {
		cfg.Spot = testSpot()
	}
	return cfg
}

// TestSchedParityAllKnobs is the deterministic sweep: one workload, all
// sixteen knob combinations, bit-identical results between paths.
func TestSchedParityAllKnobs(t *testing.T) {
	jobs := genJobs(t, 7, 400, 30, 32)
	for knobs := uint8(0); knobs < 16; knobs++ {
		cfg := parityConfig(knobs)
		heapRes, heapOrder := runSched(t, cfg, schedHeap, jobs)
		sortRes, sortOrder := runSched(t, cfg, schedSort, jobs)
		if !reflect.DeepEqual(heapRes.Outcomes, sortRes.Outcomes) {
			for i := range heapRes.Outcomes {
				if heapRes.Outcomes[i] != sortRes.Outcomes[i] {
					t.Fatalf("knobs %x: job %d diverged:\nheap %+v\nsort %+v",
						knobs, i, heapRes.Outcomes[i], sortRes.Outcomes[i])
				}
			}
			t.Fatalf("knobs %x: outcomes diverged", knobs)
		}
		if heapRes.Events != sortRes.Events || math.Float64bits(heapRes.Clock) != math.Float64bits(sortRes.Clock) {
			t.Fatalf("knobs %x: events/clock diverged: %d/%g vs %d/%g",
				knobs, heapRes.Events, heapRes.Clock, sortRes.Events, sortRes.Clock)
		}
		if !reflect.DeepEqual(heapOrder, sortOrder) {
			t.Fatalf("knobs %x: completion order diverged", knobs)
		}
		if Digest(heapRes) != Digest(sortRes) {
			t.Fatalf("knobs %x: digest diverged", knobs)
		}
	}
}

// TestQuickSchedulerParity is the random-workload property: for any
// seeded workload and knob combination, the incremental scheduler and
// the sort oracle produce identical digests.
func TestQuickSchedulerParity(t *testing.T) {
	prop := func(seed uint64, knobs uint8, jn uint8) bool {
		jobs := genJobs(t, seed, 30+int(jn)%120, 1+int(jn)%16, 32)
		cfg := parityConfig(knobs % 16)
		heapRes, _ := runSched(t, cfg, schedHeap, jobs)
		sortRes, _ := runSched(t, cfg, schedSort, jobs)
		if Digest(heapRes) != Digest(sortRes) {
			for i := range heapRes.Outcomes {
				if heapRes.Outcomes[i] != sortRes.Outcomes[i] {
					t.Logf("seed %d knobs %x: job %d diverged:\nheap %+v\nsort %+v",
						seed, knobs%16, i, heapRes.Outcomes[i], sortRes.Outcomes[i])
					break
				}
			}
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMatchesRunStream: Run is defined as RunStream collecting into
// a slice; the two entry points must agree outcome for outcome.
func TestRunMatchesRunStream(t *testing.T) {
	jobs := genJobs(t, 11, 300, 20, 32)
	cfg := parityConfig(15)
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f1.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := runSched(t, cfg, schedHeap, jobs)
	if !reflect.DeepEqual(res, streamed) {
		t.Fatal("Run and RunStream disagreed")
	}
}

// TestStreamSummaryMatchesSummarize: fed the same outcomes in the same
// order, the streaming summary is bit-identical to Summarize as long as
// the run fits the reservoir; fed in completion order (its real use),
// the order-independent fields still match exactly and the accumulated
// sums to floating-point tolerance.
func TestStreamSummaryMatchesSummarize(t *testing.T) {
	jobs := genJobs(t, 13, 500, 25, 32)
	cfg := parityConfig(15)
	res, _ := runSched(t, cfg, schedHeap, jobs)
	exact := Summarize(res.Outcomes, 0)

	ss := NewStreamSummary(0, 99)
	for _, o := range res.Outcomes { // submission order: exact replay
		ss.Observe(o)
	}
	if got := ss.Summary(); got != exact {
		t.Fatalf("submission-order stream diverged:\n got %+v\nwant %+v", got, exact)
	}

	cfg.sched = schedHeap
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss2 := NewStreamSummary(0, 99)
	if _, err := f.RunStream(Jobs(jobs), ss2.Observe); err != nil {
		t.Fatal(err)
	}
	got := ss2.Summary()
	if got.Jobs != exact.Jobs || got.Completed != exact.Completed || got.Killed != exact.Killed ||
		got.ByPool != exact.ByPool || got.Interruptions != exact.Interruptions ||
		math.Float64bits(got.MaxWait) != math.Float64bits(exact.MaxWait) ||
		math.Float64bits(got.Makespan) != math.Float64bits(exact.Makespan) ||
		math.Float64bits(got.WaitP50) != math.Float64bits(exact.WaitP50) ||
		math.Float64bits(got.WaitP90) != math.Float64bits(exact.WaitP90) ||
		math.Float64bits(got.WaitP99) != math.Float64bits(exact.WaitP99) ||
		math.Float64bits(got.SlowP99) != math.Float64bits(exact.SlowP99) {
		t.Fatalf("completion-order stream diverged on exact fields:\n got %+v\nwant %+v", got, exact)
	}
	for _, pair := range [][2]float64{
		{got.AvgWait, exact.AvgWait}, {got.SlowMean, exact.SlowMean},
		{got.Cost, exact.Cost}, {got.LostWork, exact.LostWork},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9*math.Max(1, math.Abs(pair[1])) {
			t.Fatalf("completion-order sum drifted: %g vs %g", pair[0], pair[1])
		}
	}
}

// TestStreamDigestDeterministic: the streaming digest is a pure
// function of the outcome stream and differs from the submission-order
// Digest domain only by ordering, not stability.
func TestStreamDigestDeterministic(t *testing.T) {
	jobs := genJobs(t, 17, 200, 15, 32)
	cfg := parityConfig(3)
	run := func() string {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := NewStreamDigest()
		sr, err := f.RunStream(Jobs(jobs), d.Observe)
		if err != nil {
			t.Fatal(err)
		}
		return d.Sum(sr.Clock, sr.Events)
	}
	if run() != run() {
		t.Fatal("stream digest not reproducible")
	}
}

// TestSchedParityCalibratedBroker runs both scheduler paths over a
// broker calibrated from real core.Execute reference runs, so the
// factors carry full simulated precision rather than the hand-written
// ones of staticTestBroker. Calibration itself must repeat bit for bit:
// every facility decision downstream of it depends on the factors.
func TestSchedParityCalibratedBroker(t *testing.T) {
	jobs, err := Generate(WorkloadSpec{Seed: 7, Jobs: 120, Tenants: 15, Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := CalibrateBroker(CalibrateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := CalibrateBroker(CalibrateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range CalibratedClasses() {
		a, b := broker.Factors[class], again.Factors[class]
		for p := range a {
			if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
				t.Fatalf("class %s factor on %s: %v, then %v", class, Pool(p), a[p], b[p])
			}
		}
	}
	cfg := Config{
		Slots:     [NumPools]int{64, 32, 32},
		Backfill:  true,
		Fairshare: true,
		Broker:    broker,
		Prices:    [NumPools]float64{0, 0.34, 0.68},
	}
	heapRes, _ := runSched(t, cfg, schedHeap, jobs)
	sortRes, _ := runSched(t, cfg, schedSort, jobs)
	if Digest(heapRes) != Digest(sortRes) {
		t.Fatal("heap scheduler digest diverged from the sort oracle's on a calibrated broker")
	}
}
