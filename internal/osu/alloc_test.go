package osu

import (
	"testing"

	"repro/internal/platform"
)

// budgetLatency caps the allocations of one simulated OSU latency run at
// 8 bytes on Vayu: ~2x headroom over the pooled message plane (measured
// 34; 240 before pooling).
const budgetLatency = 128

func latencyOp(tb testing.TB) func() {
	return func() {
		if _, err := Latency(platform.Vayu(), []int{8}); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestLatencyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if got := testing.AllocsPerRun(1, latencyOp(t)); got > budgetLatency {
		t.Errorf("latency-sim allocated %.0f/run, budget %d", got, budgetLatency)
	}
}

// BenchmarkLatencySim measures the simulator's own speed on the OSU
// latency microbenchmark.
func BenchmarkLatencySim(b *testing.B) {
	op := latencyOp(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}
