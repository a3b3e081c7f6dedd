package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   int
		wantOK bool
	}{
		{0, 0, false},
		{10, 0, false},
		{19, 0, false},
		{20, 500, true}, // exactly 10 above the median
		{39, 500, true},
		{40, 750, true},
		{99, 750, true},
		{100, 900, true}, // 10 above p90: integer arithmetic, no float slip
		{199, 900, true},
		{200, 950, true},
		{999, 950, true},
		{1000, 990, true},
		{10000, 999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.wantOK)
		}
		if ok && c.n*(1000-got) < minBeyond*1000 {
			t.Errorf("n=%d: p%d leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestQuantileMedianFastest(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if f := fastest(xs); f != 1 {
		t.Errorf("fastest = %v, want 1", f)
	}
	if f := fastest(nil); f != 0 {
		t.Errorf("fastest of no runs = %v, want 0", f)
	}
	if q := quantile(xs, 0.9); q != 5 {
		t.Errorf("p90 of 5 = %v, want the max by nearest rank", q)
	}
	if q := quantile(xs, 0.2); q != 1 {
		t.Errorf("p20 of 5 = %v, want 1", q)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	bounds := []float64{0, 1, 2, 4}
	counts := []uint64{0, 10, 10}
	if got := histQuantile(counts, bounds, 0.5); got != 2 {
		t.Errorf("median = %v, want 2 (top of the first full bucket)", got)
	}
	if got := histQuantile(counts, bounds, 0.75); got != 3 {
		t.Errorf("p75 = %v, want 3 (midway through [2,4))", got)
	}
	if got := histQuantile([]uint64{0, 0, 0}, bounds, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
