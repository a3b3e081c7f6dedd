// Command bench checks the perfbench suite's committed budgets: the
// allocation budget of every member (testing.AllocsPerRun) and the
// ns/op budget of the wall-time-critical ones (testing.Benchmark, 25%
// tolerance). It prints one row per budget and exits nonzero on any
// violation. It measures nothing else and writes nothing: measuring is
// `go test -bench BenchmarkSuite` (`make bench`), and end-to-end claims
// are paired A/B runs of hostbench.
//
// Usage:
//
//	bench
//	bench -lint-bench
//
// -lint-bench instead times one cold reprolint whole-module sweep
// against its committed wall-clock budget.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/perfbench"
)

// nsTolerance is the relative noise allowance on the committed ns/op
// budgets.
const nsTolerance = 0.25

func main() {
	lintBench := flag.Bool("lint-bench", false,
		"time the reprolint whole-module sweep against its committed wall-clock budget")
	flag.Parse()

	if *lintBench {
		runLintBench()
		return
	}

	suite := perfbench.Suite()
	measured, violations := perfbench.CheckBudgets(suite, 1)
	for _, b := range suite {
		fmt.Printf("%-24s %8.0f allocs/run (budget %.0f)\n", b.Name, measured[b.Name], b.AllocBudget)
	}
	ns, nsViolations := perfbench.CheckNsBudgets(suite, nsTolerance)
	for _, b := range suite {
		if b.NsBudget <= 0 {
			continue
		}
		fmt.Printf("%-24s %12.0f ns/op (budget %.0f, tolerance %.0f%%)\n",
			b.Name, ns[b.Name], b.NsBudget, 100*nsTolerance)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "bench:", v.Error())
	}
	for _, v := range nsViolations {
		fmt.Fprintln(os.Stderr, "bench:", v.Error())
	}
	if len(violations)+len(nsViolations) > 0 {
		os.Exit(1)
	}
	fmt.Println("bench: all allocation and ns/op budgets respected")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runLintBench times one cold reprolint sweep of the whole module —
// load, type-check, every analyzer — in-process (the same work `make
// lint`'s reprolint step does, minus the go run compile) and checks it
// against the committed wall-clock budget.
func runLintBench() {
	root, err := moduleRoot(".")
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	loader := analysis.NewModuleLoader(root, analysis.ModulePath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(analysis.All(), pkgs)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)
	if len(diags) > 0 {
		// A dirty tree would time the diagnostic path, not the gate.
		fatal(fmt.Errorf("lint-bench: tree not reprolint-clean (%d findings); run make lint", len(diags)))
	}

	fmt.Printf("%-24s %12.0f ns/sweep (%d packages, budget %.0f)\n",
		"lint/reprolint-sweep", float64(elapsed.Nanoseconds()), len(pkgs), float64(perfbench.LintSweepBudgetNs))
	if float64(elapsed.Nanoseconds()) > perfbench.LintSweepBudgetNs {
		fatal(fmt.Errorf("lint-bench: sweep took %v, budget %v — an analyzer has regressed",
			elapsed, time.Duration(perfbench.LintSweepBudgetNs)))
	}
	fmt.Println("bench: reprolint sweep inside its wall-clock budget")
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}
