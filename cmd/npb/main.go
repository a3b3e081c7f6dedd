// Command npb runs one NAS Parallel Benchmark kernel on a modelled
// platform, either in full-math mode (verified numerics; EP and FT at the
// small classes, issuing exactly their skeletons' MPI calls) or skeleton
// mode (pattern replay, any kernel, class B and beyond). -np accepts a
// comma-separated list of process counts; the sweep's runs execute as
// jobs on the internal/sched worker pool with the same -j / result-cache
// machinery as cmd/repro.
//
// Usage:
//
//	npb -bench cg -class B -np 16,32,64 -platform dcc -mode skeleton [-j N] [-cache DIR]
//	npb -bench ep -class S -np 4 -platform vayu -mode full [-trace t.json] [-manifest m.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	bench := flag.String("bench", "cg", "kernel: bt ep cg ft is lu mg sp")
	className := flag.String("class", "S", "problem class: S W A B C")
	npList := flag.String("np", "1", "process count, or comma-separated sweep (e.g. 16,32,64)")
	platName := flag.String("platform", "vayu", "platform: vayu, dcc or ec2")
	mode := flag.String("mode", "skeleton", "full (verified math; ep and ft only) or skeleton (pattern replay)")
	seed := flag.Uint64("seed", 0, "jitter seed (repetition index)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "number of sweep jobs to run concurrently")
	cacheDir := flag.String("cache", "", "result cache directory (empty: no cache)")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	sink := trace.AddFlag()
	flag.Parse()
	start := time.Now()

	p, err := platform.ByName(*platName)
	if err != nil {
		fatal(err)
	}
	class, err := npb.ParseClass(*className)
	if err != nil {
		fatal(err)
	}
	if !slices.Contains(npb.Names(), *bench) {
		kernels := slices.Clone(npb.Names())
		slices.Sort(kernels)
		fatal(fmt.Errorf("unknown kernel %q (want %s)", *bench, strings.Join(kernels, ", ")))
	}
	nps, err := parseNPs(*npList)
	if err != nil {
		fatal(err)
	}
	for _, np := range nps {
		if !npb.ValidProcs(*bench, np) {
			fatal(fmt.Errorf("%s does not accept np=%d", *bench, np))
		}
	}
	if *mode != "skeleton" && *mode != "full" {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *mode == "full" {
		if _, ok := suite.Fulls[*bench]; !ok {
			var fulls []string
			for name := range suite.Fulls {
				fulls = append(fulls, name)
			}
			sort.Strings(fulls)
			fatal(fmt.Errorf("kernel %s has no full-math implementation (full-math kernels: %s)",
				*bench, strings.Join(fulls, ", ")))
		}
		// Establish FT's self-golden (a trusted serial run; see DESIGN.md).
		// Registered once, up front, so the sweep's parallel jobs only read
		// the registry.
		if *bench == "ft" {
			if err := suite.RegisterGoldens(class); err != nil {
				fatal(err)
			}
		}
	}

	cache := openCache(*cacheDir)
	if sink.Active() {
		// Tracing needs live, deterministically ordered runs: one worker,
		// no cache, and no cache keys so the recording always happens.
		*workers = 1
		cache = nil
	}
	reg := obs.NewRegistry()

	var jobs []sched.Job
	for _, np := range nps {
		np := np
		id := fmt.Sprintf("npb-%s-%s-%d", *bench, class, np)
		var key *sched.Key
		if !sink.Active() {
			key = &sched.Key{
				Experiment:   "npb-" + *mode + "-" + *bench,
				Params:       fmt.Sprintf("class=%s,np=%d,platform=%s", class, np, p.Name),
				Seed:         *seed,
				ModelVersion: core.ModelVersion,
			}
		}
		jobs = append(jobs, sched.Job{
			ID:  id,
			Key: key,
			Run: func(ctx *sched.Ctx) (map[string][]byte, error) {
				text, err := kernelRun(p, *bench, *mode, class, np, *seed, ctx, sink.Tracer(np), reg)
				if err != nil {
					return nil, err
				}
				return map[string][]byte{id + ".txt": []byte(text)}, nil
			},
		})
	}

	results, runErr := sched.Run(jobs, sched.Options{
		Workers: *workers,
		Cache:   cache,
		Metrics: reg,
	})
	if results == nil {
		fatal(runErr)
	}
	var virtual float64
	for _, r := range results {
		virtual += r.Virtual
		if r.Status != sched.Done && r.Status != sched.Cached {
			continue
		}
		names := make([]string, 0, len(r.Files))
		for name := range r.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Print(string(r.Files[name]))
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	if err := obs.WriteManifest(*manifest, &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "npb",
		ModelVersion: core.ModelVersion, Platform: p.Name, Seed: *seed,
		Knobs: map[string]string{
			"bench": *bench, "class": string(class), "np": *npList, "mode": *mode,
		},
		VirtualSeconds: virtual,
		WallSeconds:    time.Since(start).Seconds(),
		Metrics:        reg.Snapshot(true),
	}); err != nil {
		fatal(err)
	}
}

// kernelRun executes one (kernel, class, np) point and renders its
// summary line(s).
func kernelRun(p *platform.Platform, bench, mode string, class npb.Class, np int, seed uint64,
	ctx *sched.Ctx, tracer mpi.Tracer, reg *obs.Registry) (string, error) {
	spec := core.RunSpec{Platform: p, NP: np, Seed: seed, Meter: ctx.Meter(),
		ExtraTracer: tracer, Metrics: reg}
	var sb strings.Builder
	switch mode {
	case "skeleton":
		fn, err := suite.Skeleton(bench)
		if err != nil {
			return "", err
		}
		out, err := core.Execute(spec, func(c *mpi.Comm) error {
			return fn(c, class)
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%s.%s.%d on %s: %.2f s virtual walltime, %.1f%% comm\n",
			bench, class, np, p.Name, out.Time(), out.Profile.CommPercent())
	case "full":
		fn := suite.Fulls[bench]
		var result *suite.FullResult
		out, err := core.Execute(spec, func(c *mpi.Comm) error {
			r, err := fn(c, class)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				result = r
			}
			return nil
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%s.%s.%d on %s: %.2f s virtual walltime, %.1f%% comm\n",
			bench, class, np, p.Name, out.Time(), out.Profile.CommPercent())
		fmt.Fprintf(&sb, "verification: %s\n", result.VerifyMsg)
	}
	return sb.String(), nil
}

// parseNPs parses a comma-separated process-count list.
func parseNPs(s string) ([]int, error) {
	var nps []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		np, err := strconv.Atoi(part)
		if err != nil || np < 1 {
			return nil, fmt.Errorf("bad process count %q", part)
		}
		nps = append(nps, np)
	}
	if len(nps) == 0 {
		return nil, fmt.Errorf("empty -np list")
	}
	return nps, nil
}

func openCache(dir string) *sched.Cache {
	if dir == "" {
		return nil
	}
	cache, err := sched.OpenCache(dir)
	if err != nil {
		fatal(err)
	}
	return cache
}

// fatal prints err under the command's name once: errors from the
// npb package already carry that prefix.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "npb:", strings.TrimPrefix(err.Error(), "npb: "))
	os.Exit(1)
}
