// Package perfbench is the benchmark-regression harness of the
// reproduction: a fixed suite of runtime microbenchmarks (point-to-point
// throughput, allreduce, world churn) plus wrappers around the figure
// regenerations of bench_test.go, measured with testing.Benchmark and
// gated by committed allocation budgets via testing.AllocsPerRun.
//
// `make bench` runs the full suite, checks the budgets and appends one
// environment-stamped snapshot (ns/op, B/op, allocs/op) to the bench
// history (history.go); `make verify` runs the cheap smoke mode, which
// only checks the budgets, so an accidental allocation regression on the
// message hot path fails the gate before it lands.
package perfbench

import (
	"fmt"
	"testing"
)

// Stats is one benchmark measurement.
type Stats struct {
	N           int     `json:"n"`             // iterations measured
	NsPerOp     float64 `json:"ns_per_op"`     // wall nanoseconds per op
	AllocsPerOp float64 `json:"allocs_per_op"` // heap allocations per op
	BytesPerOp  float64 `json:"bytes_per_op"`  // heap bytes per op
}

// Bench is one suite member: a single-iteration operation plus its
// allocation budget.
type Bench struct {
	Name string
	// Op runs one iteration; it must be deterministic and panic on error.
	Op func()
	// AllocBudget caps testing.AllocsPerRun(runs, Op); 0 exempts the
	// benchmark from the allocation gate (figure regenerations, whose
	// allocation count is dominated by reporting, not the message plane).
	AllocBudget float64
	// NsBudget caps the wall nanoseconds per op measured by
	// testing.Benchmark; 0 exempts the benchmark from the timing gate.
	// Checked by CheckNsBudgets with an explicit relative tolerance.
	NsBudget float64
}

// Measure times b.Op with the standard benchmark machinery.
func Measure(b Bench) Stats {
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			b.Op()
		}
	})
	return Stats{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// AllocsPerRun measures b.Op's allocations per run (averaged over runs
// invocations after one warmup, GOMAXPROCS pinned to 1 by the testing
// package).
func AllocsPerRun(b Bench, runs int) float64 {
	if runs < 1 {
		runs = 1
	}
	return testing.AllocsPerRun(runs, b.Op)
}

// BudgetViolation describes one benchmark exceeding its allocation budget.
type BudgetViolation struct {
	Name     string
	Measured float64
	Budget   float64
}

// Error formats the violation.
func (v BudgetViolation) Error() string {
	return fmt.Sprintf("perfbench: %s allocated %.0f/run, budget %.0f", v.Name, v.Measured, v.Budget)
}

// CheckBudgets measures every budgeted benchmark with testing.AllocsPerRun
// and returns the measurements and any violations.
func CheckBudgets(benches []Bench, runs int) (map[string]float64, []BudgetViolation) {
	measured := make(map[string]float64)
	var violations []BudgetViolation
	for _, b := range benches {
		if b.AllocBudget <= 0 {
			continue
		}
		got := AllocsPerRun(b, runs)
		measured[b.Name] = got
		if got > b.AllocBudget {
			violations = append(violations, BudgetViolation{Name: b.Name, Measured: got, Budget: b.AllocBudget})
		}
	}
	return measured, violations
}
