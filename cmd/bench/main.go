// Command bench runs the perfbench suite: runtime microbenchmarks plus
// figure-regeneration benchmarks, with committed allocation and ns/op
// budgets and an append-only measurement history.
//
// Usage:
//
//	bench [-history results/bench/history.jsonl]
//	bench -smoke
//	bench -report [-history FILE] [-fail-on-regression] [MANIFEST...]
//
// Full mode measures every benchmark with testing.Benchmark (ns/op, B/op,
// allocs/op), checks the allocation and timing budgets and appends one
// environment-stamped snapshot to the history. Smoke mode (-smoke)
// skips the suite-wide timing measurements and only checks the budgets —
// the cheap gate `make verify` uses. Report mode (-report) renders the
// per-benchmark trend table from the history (delta vs previous and vs
// the oldest same-environment entry, with a statistical verdict) and,
// given run-manifest paths as arguments, their recorded metrics; with
// -fail-on-regression it exits nonzero when the latest snapshot
// regressed against its trailing window.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfbench"
	"repro/internal/report"
)

func main() {
	smoke := flag.Bool("smoke", false, "budget checks only (no suite-wide timing, no history)")
	runs := flag.Int("runs", 3, "runs per testing.AllocsPerRun measurement")
	history := flag.String("history", "", "append-only bench history (JSONL) to append to / report from")
	reportMode := flag.Bool("report", false, "render the trend table from the history instead of measuring")
	failOnRegression := flag.Bool("fail-on-regression", false, "with -report: exit nonzero when the latest snapshot regressed")
	window := flag.Int("window", perfbench.DefaultDetector().Window, "trailing history window the change detector compares against")
	tolerance := flag.Float64("tolerance", perfbench.DefaultDetector().Tolerance, "relative noise floor of the change detector")
	nsTolerance := flag.Float64("ns-tolerance", 0.25, "relative tolerance on the committed ns/op budgets")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	lintBench := flag.Bool("lint-bench", false,
		"time the reprolint whole-module sweep against its committed wall-clock budget")
	flag.Parse()
	start := time.Now()

	detector := perfbench.Detector{Window: *window, Tolerance: *tolerance,
		Sigmas: perfbench.DefaultDetector().Sigmas}
	env := perfbench.Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     obs.GitRev(),
	}

	if *reportMode {
		reportTrends(*history, detector, *failOnRegression, flag.Args())
		return
	}
	if *lintBench {
		runLintBench(*history, env, start)
		return
	}

	writeManifest := func() {
		knobs := obs.EnvKnobs(env.GitRev)
		knobs["smoke"] = strconv.FormatBool(*smoke)
		knobs["runs"] = strconv.Itoa(*runs)
		if err := obs.WriteManifest(*manifest, &obs.Manifest{
			Schema: obs.ManifestSchema, Binary: "bench",
			ModelVersion: core.ModelVersion,
			Knobs:        knobs,
			WallSeconds:  time.Since(start).Seconds(),
		}); err != nil {
			fatal(err)
		}
	}

	suite := perfbench.Suite()

	if *smoke {
		measured, violations := perfbench.CheckBudgets(suite, 1)
		for _, b := range suite {
			if b.AllocBudget <= 0 {
				continue
			}
			fmt.Printf("%-24s %8.0f allocs/run (budget %.0f)\n", b.Name, measured[b.Name], b.AllocBudget)
		}
		ns, nsViolations := perfbench.CheckNsBudgets(suite, *nsTolerance)
		for _, b := range suite {
			if b.NsBudget <= 0 {
				continue
			}
			fmt.Printf("%-24s %12.0f ns/op (budget %.0f, tolerance %.0f%%)\n",
				b.Name, ns[b.Name], b.NsBudget, 100**nsTolerance)
		}
		writeManifest()
		fail(violations, nsViolations)
		fmt.Println("bench: all allocation and ns/op budgets respected")
		return
	}

	stats := make(map[string]perfbench.Stats, len(suite))
	var nsViolations []perfbench.NsViolation
	for _, b := range suite {
		fmt.Printf("%-24s ", b.Name)
		st := perfbench.Measure(b)
		fmt.Printf("%12.0f ns/op %10.0f B/op %8.0f allocs/op\n", st.NsPerOp, st.BytesPerOp, st.AllocsPerOp)
		stats[b.Name] = st
		if b.NsBudget > 0 && st.NsPerOp > b.NsBudget*(1+*nsTolerance) {
			nsViolations = append(nsViolations, perfbench.NsViolation{
				Name: b.Name, Measured: st.NsPerOp, Budget: b.NsBudget, Tolerance: *nsTolerance})
		}
	}
	_, violations := perfbench.CheckBudgets(suite, *runs)
	if *history != "" {
		when := start.UTC().Format(time.RFC3339)
		snap := perfbench.SnapshotFromStats(core.ModelVersion, when, env, stats)
		if err := perfbench.AppendHistory(*history, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("bench: snapshot appended to %s (%s)\n", *history, env.Fingerprint())
	}
	writeManifest()
	fail(violations, nsViolations)
}

// reportTrends renders the continuous-evaluation view of the history:
// one row per benchmark of the latest snapshot, classified against its
// trailing same-environment window, plus the stable metrics of any run
// manifests given as arguments.
func reportTrends(path string, d perfbench.Detector, failOnRegression bool, manifests []string) {
	if path == "" {
		fatal(fmt.Errorf("-report needs -history FILE"))
	}
	history, err := perfbench.ReadHistory(path)
	if err != nil {
		fatal(err)
	}
	if len(history) == 0 {
		fmt.Printf("bench: %s is empty — run `make bench` to take the first snapshot\n", path)
		return
	}
	last := history[len(history)-1]
	fmt.Printf("bench history %s: %d snapshot(s), latest %s on %s\n",
		path, len(history), orDash(last.Time), last.Env.Fingerprint())

	trends := d.Trends(history)
	t := &report.Table{
		Title:   fmt.Sprintf("Benchmark trends (window %d, tolerance %.0f%%, %.0f-sigma)", d.Window, 100*d.Tolerance, d.Sigmas),
		Headers: []string{"benchmark", "runs", "base ns/op", "prev ns/op", "ns/op", "vs prev", "vs base", "verdict"},
	}
	for _, tr := range trends {
		t.AddRow(tr.Name, tr.Runs, tr.Base, tr.Prev, tr.Current,
			pct(tr.VsPrev()), pct(tr.VsBase()), string(tr.Verdict))
	}
	fmt.Println(t.Render())

	for _, mpath := range manifests {
		printManifestMetrics(mpath)
	}

	if regs := perfbench.Regressions(trends); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "bench: %s regressed: %.0f ns/op vs window (prev %.0f, base %.0f)\n",
				r.Name, r.Current, r.Prev, r.Base)
		}
		if failOnRegression {
			os.Exit(1)
		}
	} else {
		fmt.Println("bench: no statistically significant regression in the latest snapshot")
	}
}

// printManifestMetrics renders the metric values recorded in one run
// manifest, so a trend review can line benchmark deltas up against the
// observability counters of the runs that produced them.
func printManifestMetrics(path string) {
	m, err := obs.ReadManifest(path)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(m.Metrics))
	for name := range m.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	t := &report.Table{
		Title:   fmt.Sprintf("Metrics of %s (binary %s, model %s)", path, m.Binary, m.ModelVersion),
		Headers: []string{"metric", "kind", "value", "count", "sum"},
	}
	for _, name := range names {
		mm := m.Metrics[name]
		t.AddRow(name, mm.Kind, mm.Value, mm.Count, mm.Sum)
	}
	fmt.Println(t.Render())
}

// pct renders a relative delta as a signed percentage ("-" when absent).
func pct(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*v)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// fail reports budget violations and exits nonzero if any exist.
func fail(violations []perfbench.BudgetViolation, ns []perfbench.NsViolation) {
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "bench:", v.Error())
	}
	for _, v := range ns {
		fmt.Fprintln(os.Stderr, "bench:", v.Error())
	}
	if len(violations)+len(ns) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runLintBench times one cold reprolint sweep of the whole module —
// load, type-check, interprocedural facts, every analyzer — in-process
// (the same work `make lint`'s reprolint step does, minus the go run
// compile), checks it against the committed wall-clock budget and
// appends a "lint/reprolint-sweep" point to the bench history.
func runLintBench(historyPath string, env perfbench.Env, start time.Time) {
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
	if historyPath != "" {
		when := start.UTC().Format(time.RFC3339)
		snap := perfbench.SnapshotFromStats(core.ModelVersion, when, env, map[string]perfbench.Stats{
			"lint/reprolint-sweep": {N: 1, NsPerOp: float64(elapsed.Nanoseconds())},
		})
		if err := perfbench.AppendHistory(historyPath, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("bench: snapshot appended to %s (%s)\n", historyPath, env.Fingerprint())
	}
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
