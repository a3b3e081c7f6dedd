package main

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// fakeClock returns the values of ticks in turn.
func fakeClock(ticks ...int64) func() int64 {
	i := 0
	return func() int64 {
		v := ticks[i]
		i++
		return v
	}
}

func TestGapAttributionFakeClock(t *testing.T) {
	hists := new([numHists]gapHist)
	// created at 1000; rank 0: compute done at 1100, Send done at 1150,
	// Allreduce done at 5150; rank 1: Recv done at 3000.
	tr := newCallTracer(fakeClock(1000, 1100, 1150, 5150, 3000), 2, hists)
	tr.Advance(0, "compute", 0, 1)
	tr.Call(0, mpi.CallRecord{Name: "Send"})
	tr.Call(0, mpi.CallRecord{Name: "Allreduce"})
	tr.Call(1, mpi.CallRecord{Name: "Recv"})

	// Send's gap starts at the Advance callback, not at creation.
	checkOnly(t, "all", &hists[histAll], 3, []int64{50, 4000, 2000})
	checkOnly(t, "Allreduce", &hists[histAllreduce], 1, []int64{4000})
	checkOnly(t, "Recv", &hists[histRecv], 1, []int64{2000})

	var tl tally
	tr.addTo(&tl)
	if tl.calls[opSend] != 1 || tl.calls[opAllreduce] != 1 || tl.calls[opRecv] != 1 || tl.total() != 3 {
		t.Errorf("tally calls = %v", tl.calls)
	}
	if tl.compute != 1 || tl.io != 0 || tl.runs != 1 {
		t.Errorf("tally = %+v", tl)
	}
	if got := tr.span(); got != 4150e-9 {
		t.Errorf("span = %v s, want 4150 ns (creation to last callback)", got)
	}
}

// checkOnly asserts a histogram holds exactly n observations, all in the
// buckets of the given gaps.
func checkOnly(t *testing.T, name string, h *gapHist, n int64, gaps []int64) {
	t.Helper()
	want := map[int]bool{}
	for _, g := range gaps {
		want[gapBucket(g)] = true
	}
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		total += c
		if c > 0 && !want[i] {
			lo, _ := bucketRange(i)
			t.Errorf("%s: unexpected observation near %v ns", name, lo)
		}
	}
	if total != n {
		t.Errorf("%s: %d observations, want %d", name, total, n)
	}
}

func TestGapBucketsCoverValues(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456789, 1 << 40} {
		lo, w := bucketRange(gapBucket(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d falls outside its bucket [%v, %v)", v, lo, lo+w)
		}
		if v >= 64 && w/lo > 1.0/64+1e-12 {
			t.Errorf("bucket of %d is %v wide at %v: over 1/64 relative", v, w, lo)
		}
	}
}

// TestGapAttributionTwoRankWorld drives a hand-built two-rank world: rank
// 1 sleeps before its receive, so the receive's host time and rank 0's
// barrier (which waits for rank 1) must both include the sleep, while
// rank 0's eager send and rank 1's barrier (rank 0 is already there)
// must not.
func TestGapAttributionTwoRankWorld(t *testing.T) {
	const nap = 30 * time.Millisecond
	p := platform.Vayu()
	pl, err := cluster.Place(p, cluster.Spec{NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	hists := new([numHists]gapHist)
	base := time.Now()
	tr := newCallTracer(func() int64 { return int64(time.Since(base)) }, 2, hists)
	w, err := mpi.NewWorld(p, pl, mpi.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1})
		} else {
			time.Sleep(nap)
			c.Recv(0, 7, make([]float64, 1))
		}
		c.Barrier()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var tl tally
	tr.addTo(&tl)
	if tl.calls[opSend] != 1 || tl.calls[opRecv] != 1 || tl.calls[opBarrier] != 2 {
		t.Fatalf("calls = %v, want one Send, one Recv, two Barriers", tl.calls)
	}
	if got := hists[histRecv].quantile(0.5); got < float64(nap) {
		t.Errorf("Recv host time %v ns, want at least the %v sleep", got, nap)
	}
	// Four calls, two fast and two spanning the sleep.
	if got := hists[histAll].quantile(0.5); got >= float64(nap) {
		t.Errorf("second fastest call took %v ns; only the Recv and rank 0's Barrier wait for the sleep", got)
	}
	if got := hists[histAll].quantile(0.75); got < float64(nap) {
		t.Errorf("third fastest call took %v ns, want rank 0's Barrier to include the sleep", got)
	}
}
