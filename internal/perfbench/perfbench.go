// Package perfbench is the benchmark gate of the reproduction: a fixed
// suite of runtime microbenchmarks (point-to-point throughput, allreduce,
// the Chaste ring halo, world churn, the OSU simulation and the batch
// facility), each carrying a committed allocation budget checked with
// testing.AllocsPerRun and, for the wall-time-critical ones, an ns/op
// budget checked with testing.Benchmark.
//
// `cmd/bench` (`make bench-smoke`, part of `make verify`) checks the
// budgets, so an accidental allocation regression on the message hot
// path fails the gate before it lands. Measuring is `go test -bench
// BenchmarkSuite` (`make bench`), which runs the same members as
// sub-benchmarks.
package perfbench

import (
	"fmt"
	"math"
	"testing"
)

// Bench is one suite member: a single-iteration operation plus its
// budgets.
type Bench struct {
	Name string
	// Op runs one iteration; it must be deterministic and panic on error.
	Op func()
	// AllocBudget caps testing.AllocsPerRun(runs, Op); 0 exempts the
	// benchmark from the allocation gate.
	AllocBudget float64
	// NsBudget caps the wall nanoseconds per op measured by
	// testing.Benchmark; 0 exempts the benchmark from the timing gate.
	// Checked by CheckNsBudgets with an explicit relative tolerance.
	NsBudget float64
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

// CheckBudgets measures every budgeted benchmark's allocations per run
// with testing.AllocsPerRun (averaged over runs invocations, at least
// one, after a warmup, GOMAXPROCS pinned to 1) and returns the
// measurements and any violations.
func CheckBudgets(benches []Bench, runs int) (map[string]float64, []BudgetViolation) {
	measured := make(map[string]float64)
	var violations []BudgetViolation
	for _, b := range benches {
		if b.AllocBudget <= 0 {
			continue
		}
		got := testing.AllocsPerRun(max(runs, 1), b.Op)
		measured[b.Name] = got
		if got > b.AllocBudget {
			violations = append(violations, BudgetViolation{Name: b.Name, Measured: got, Budget: b.AllocBudget})
		}
	}
	return measured, violations
}

// Within reports whether two float64 values are equal within the given
// relative tolerance (of the larger magnitude). tol 0 demands exact
// equality; tol 0.05 accepts a 5% spread. This is the comparator behind
// `inspect diff -tolerance`.
func Within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// NsViolation describes one benchmark exceeding its ns/op budget beyond
// the configured tolerance.
type NsViolation struct {
	Name      string
	Measured  float64
	Budget    float64
	Tolerance float64
}

// Error formats the violation with the effective ceiling.
func (v NsViolation) Error() string {
	return fmt.Sprintf("perfbench: %s took %.0f ns/op, budget %.0f (+%.0f%% tolerance = %.0f)",
		v.Name, v.Measured, v.Budget, 100*v.Tolerance, v.Budget*(1+v.Tolerance))
}

// CheckNsBudgets times every ns-budgeted benchmark with
// testing.Benchmark and returns the ns/op measurements plus any budget
// violations. A measurement only violates when it exceeds the committed
// budget by more than the relative tolerance — the explicit noise
// allowance that keeps the wall-clock gate from flapping.
func CheckNsBudgets(benches []Bench, tol float64) (map[string]float64, []NsViolation) {
	measured := make(map[string]float64)
	var violations []NsViolation
	for _, b := range benches {
		if b.NsBudget <= 0 {
			continue
		}
		r := testing.Benchmark(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				b.Op()
			}
		})
		got := float64(r.T.Nanoseconds()) / float64(r.N)
		measured[b.Name] = got
		if got > b.NsBudget*(1+tol) {
			violations = append(violations, NsViolation{
				Name: b.Name, Measured: got, Budget: b.NsBudget, Tolerance: tol})
		}
	}
	return measured, violations
}
