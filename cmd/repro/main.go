// Command repro regenerates every table and figure of the paper's
// evaluation section into a results directory: Figures 1-7 and Tables
// II-III, plus the Chaste 32-core prose numbers.
//
// Artefacts run as jobs on the internal/sched worker pool (-j) backed by
// a content-addressed result cache, so re-running an unchanged artefact
// is a cache hit instead of a re-simulation. Every artefact is a pure
// function of (ID, sweep, seed, model version); parallel runs produce
// byte-identical output to -j 1.
//
// Usage:
//
//	repro [-out results] [-only fig1,fig4,table3] [-quick] [-j N]
//	      [-seed N] [-nocache] [-cache DIR] [-check] [-faults mtbf=600,ckpt=3]
//	      [-cpuprofile FILE]
//
// -cpuprofile writes a CPU profile of the artefact run in which every
// sample carries the label artefact=<id> of the job it was taken in, so
// one sweep profile splits by artefact with the stock tool:
//
//	go tool pprof -tagfocus artefact=fac2 repro cpu.prof
//
// The fault1 artefact (E12) sweeps MetUM time-to-solution over MTBF and
// checkpoint-interval classes on all three platforms; -faults subjects
// every other artefact's NPB-skeleton and application runs to a
// deterministic fault plan instead (the two-rank OSU calibration
// microbenchmarks of fig1/fig2 always run fault-free).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	out := flag.String("out", "results", "output directory")
	only := flag.String("only", "", "comma-separated artefact subset (e.g. fig1,fig4,table3)")
	quick := flag.Bool("quick", false, "smaller sweeps (fewer sizes/process counts)")
	check := flag.Bool("check", false, "evaluate the paper's headline claims and report PASS/FAIL")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "number of artefact jobs to run concurrently")
	seed := flag.Uint64("seed", 0, "base seed for every experiment's random streams")
	nocache := flag.Bool("nocache", false, "ignore and do not update the result cache (force a cold rerun)")
	cacheDir := flag.String("cache", "", "result cache directory (default <out>/.cache)")
	faults := flag.String("faults", "",
		"inject faults into every kernel/application run, e.g. mtbf=600,ckpt=3 (keys: mtbf, straggle, slow, degrade, dlat, dbw, horizon, ckpt, seed); part of the cache key")
	sweepName := flag.String("sweep", "",
		"explicit sweep resolution: full, quick or smoke (overrides -quick)")
	manifest := flag.String("manifest", "", "write a top-level run-manifest JSON to this file")
	cpuprofile := flag.String("cpuprofile", "",
		"write a CPU profile of the artefact run to this file, each sample labelled artefact=<id>")
	sink := trace.AddFlag()
	flag.Parse()
	start := time.Now()

	var profile *os.File
	if *cpuprofile != "" {
		if *check {
			fatal(fmt.Errorf("-cpuprofile profiles artefact runs, not -check"))
		}
		var err error
		if profile, err = os.Create(*cpuprofile); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}

	cache := openCache(*out, *cacheDir, *nocache)

	if *check {
		runChecks(*workers, cache)
		return
	}

	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	sweep := experiments.SweepFull
	if *quick {
		sweep = experiments.SweepQuick
	}
	if *sweepName != "" {
		var err error
		if sweep, err = experiments.ParseSweep(*sweepName); err != nil {
			fatal(err)
		}
	}
	fp, err := fault.ParseParams(*faults)
	if err != nil {
		fatal(err)
	}
	var tracer func(np int) mpi.Tracer
	if sink.Active() {
		// A timeline is only meaningful for one live, sequentially executed
		// artefact: require -only with a single ID and force -j 1 (traced
		// jobs already bypass the cache).
		if len(ids) != 1 {
			fatal(fmt.Errorf("-trace needs -only with exactly one artefact"))
		}
		*workers = 1
		tracer = sink.Tracer
	}
	jobs, err := experiments.JobsTraced(sweep, *seed, fp, ids, tracer)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	if profile != nil {
		labelJobs(jobs)
		if err := pprof.StartCPUProfile(profile); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	reg := obs.NewRegistry()
	results, runErr := sched.Run(jobs, sched.Options{
		Workers: *workers,
		Cache:   cache,
		OnEvent: progress,
		Metrics: reg,
	})
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	if results == nil {
		fatal(runErr)
	}

	// Write and print completed artefacts in registry order (partial
	// results are still written when a later job failed).
	for _, r := range results {
		if r.Status != sched.Done && r.Status != sched.Cached {
			continue
		}
		for _, name := range sortedNames(r.Files) {
			if err := os.WriteFile(filepath.Join(*out, name), r.Files[name], 0o644); err != nil {
				fatal(err)
			}
			if strings.HasSuffix(name, ".txt") {
				fmt.Println(string(r.Files[name]))
			}
		}
	}

	fmt.Println(summary(results).Render())
	if runErr != nil {
		fatal(runErr)
	}
	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	if err := writeRunManifest(*manifest, sweep, *seed, *only, *faults, results, reg, start); err != nil {
		fatal(err)
	}
}

// writeRunManifest records the whole invocation: knobs, total virtual
// time, scheduler metrics (including volatile wall-clock series — this
// manifest describes one interactive run, not a golden artefact), the
// host wall time of every job that ran (sched_job_wall_ns_<id>) and the
// hashes of every produced file. The per-artefact manifests written
// alongside the outputs stay the deterministic provenance records.
func writeRunManifest(path string, sweep experiments.Sweep, seed uint64,
	only, faults string, results []sched.Result, reg *obs.Registry, start time.Time) error {
	if path == "" {
		return nil
	}
	files := map[string][]byte{}
	var virtual float64
	for _, r := range results {
		virtual += r.Virtual
		for name, data := range r.Files {
			files[name] = data
		}
		if r.Status == sched.Done {
			reg.VolatileGauge("sched_job_wall_ns_"+r.ID, "host wall time of job "+r.ID).Set(r.Wall.Nanoseconds())
		}
	}
	knobs := obs.EnvKnobs(obs.GitRev())
	knobs["sweep"] = string(sweep)
	if only != "" {
		knobs["only"] = only
	}
	return obs.WriteManifest(path, &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "repro",
		ModelVersion: core.ModelVersion, Seed: seed,
		Knobs:          knobs,
		FaultSpec:      faults,
		VirtualSeconds: virtual,
		WallSeconds:    time.Since(start).Seconds(),
		Metrics:        reg.Snapshot(true),
		Artefacts:      obs.HashArtefacts(files),
	})
}

// labelJobs makes each job run under the pprof label artefact=<id>.
// Goroutines a job starts (the ranks of its simulated worlds) inherit
// the label, so every CPU sample taken for the job carries it.
func labelJobs(jobs []sched.Job) {
	for i := range jobs {
		id, run := jobs[i].ID, jobs[i].Run
		jobs[i].Run = func(ctx *sched.Ctx) (files map[string][]byte, err error) {
			pprof.Do(context.Background(), pprof.Labels("artefact", id), func(context.Context) {
				files, err = run(ctx)
			})
			return files, err
		}
	}
}

// openCache resolves the cache flags; nil disables caching.
func openCache(out, dir string, nocache bool) *sched.Cache {
	if nocache {
		return nil
	}
	if dir == "" {
		dir = filepath.Join(out, ".cache")
	}
	cache, err := sched.OpenCache(dir)
	if err != nil {
		fatal(err)
	}
	return cache
}

// progress prints one line per job transition (serialized by the scheduler).
func progress(e sched.Event) {
	switch e.Type {
	case sched.JobStarted:
		fmt.Printf("[%s] running...\n", e.ID)
	case sched.JobFinished:
		r := e.Result
		switch r.Status {
		case sched.Done:
			fmt.Printf("[%s] done in %s (simulated %ss)\n",
				r.ID, report.FormatDuration(r.Wall), report.FormatFloat(r.Virtual))
		case sched.Cached:
			fmt.Printf("[%s] cache hit (cold run simulated %ss)\n",
				r.ID, report.FormatFloat(r.Virtual))
		case sched.Failed:
			fmt.Printf("[%s] FAILED: %v\n", r.ID, r.Err)
		case sched.Skipped:
			fmt.Printf("[%s] skipped\n", r.ID)
		}
		if r.CacheErr != nil {
			fmt.Printf("[%s] warning: cache write failed: %v\n", r.ID, r.CacheErr)
		}
	}
}

// summary builds the per-job timing table.
func summary(results []sched.Result) *report.Table {
	t := &report.Table{
		Title:   "Job summary",
		Headers: []string{"job", "status", "wall", "simulated (s)", "files"},
	}
	var wall, virtual float64
	for _, r := range results {
		t.AddRow(r.ID, r.Status.String(), report.FormatDuration(r.Wall), r.Virtual, len(r.Files))
		wall += r.Wall.Seconds()
		virtual += r.Virtual
	}
	t.AddRow("total", "", report.FormatFloat(wall)+"s", virtual, "")
	return t
}

// runChecks evaluates the paper's claims through the scheduler.
func runChecks(workers int, cache *sched.Cache) {
	checks, err := experiments.RunChecksScheduled(sched.Options{
		Workers: workers,
		Cache:   cache,
	})
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, c := range checks {
		status := "PASS"
		if !c.Passed {
			status = "FAIL"
			failed++
		}
		fmt.Printf("[%s] %-4s %s\n       measured: %s\n", c.ID, status, c.Claim, c.Detail)
	}
	fmt.Printf("\n%d/%d claims reproduced\n", len(checks)-failed, len(checks))
	if failed > 0 {
		os.Exit(1)
	}
}

func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
