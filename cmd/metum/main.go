// Command metum runs the MetUM global atmosphere proxy on a modelled
// platform and prints an IPM-style report.
//
// Usage:
//
//	metum -platform ec2 -np 32 -nodes 4 [-trace t.json] [-manifest m.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/apps/metum"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	platName := flag.String("platform", "vayu", "platform: vayu, dcc or ec2")
	np := flag.Int("np", 32, "process count")
	nodes := flag.Int("nodes", 0, "node count (0 = memory-driven minimum)")
	steps := flag.Int("steps", 0, "override timestep count (0 = paper's 18)")
	breakdown := flag.Bool("breakdown", false, "print the per-process ATM_STEP breakdown (Fig 7 style)")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	faults := flag.String("faults", "",
		"fault injection, e.g. mtbf=600,ckpt=3 (keys: mtbf, straggle, slow, degrade, dlat, dbw, horizon, ckpt, seed)")
	sink := trace.AddFlag()
	flag.Parse()
	start := time.Now()
	if *np < 1 {
		fatal(fmt.Errorf("-np must be at least 1, got %d", *np))
	}
	if *steps < 0 {
		fatal(fmt.Errorf("-steps must not be negative, got %d", *steps))
	}

	p, err := platform.ByName(*platName)
	if err != nil {
		fatal(err)
	}
	fp, err := fault.ParseParams(*faults)
	if err != nil {
		fatal(err)
	}
	cfg := metum.Default()
	if *steps > 0 {
		cfg.Steps = *steps
		if cfg.Warmup >= cfg.Steps {
			cfg.Warmup = 0
		}
	}
	cfg.CheckpointEvery = fp.CheckpointEvery
	reg := obs.NewRegistry()
	spec := core.RunSpec{
		Platform: p, NP: *np, Nodes: *nodes, MemPerRank: cfg.MemPerRank(*np),
		ExtraTracer: sink.Tracer(*np), Metrics: reg,
	}
	var plan *fault.Plan
	if fp.Enabled() {
		plan, err = fault.Generate(fp.Spec, p.Name, "metum", *np, p.Nodes, fp.Seed)
		if err != nil {
			fatal(err)
		}
		spec.Faults = plan
		spec.Resilient = true
	}
	var stats *metum.Stats
	out, err := core.Execute(spec, func(c *mpi.Comm) error {
		s, err := metum.Run(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			stats = s
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("MetUM N320L70 on %s, np=%d\n", p.Name, *np)
	fmt.Printf("  total   %8.1f s\n", stats.Total)
	fmt.Printf("  warmed  %8.1f s\n", stats.Warmed)
	fmt.Printf("  I/O     %8.1f s\n", stats.IO)
	fmt.Printf("  %%comm   %8.1f\n", out.Profile.CommPercent())
	fmt.Printf("  %%wait   %8.1f (of comm)\n", out.Profile.WaitPercent())
	fmt.Printf("  %%imbal  %8.1f\n", out.Profile.LoadImbalancePercent())
	if rs := out.Resilience; rs != nil && (rs.Restarts > 0 || rs.Checkpoints > 0) {
		fmt.Printf("  faults  %d restart(s), %d checkpoint(s), %.1f s lost, %.1f s restart cost\n",
			rs.Restarts, rs.Checkpoints, rs.LostWork, rs.RestartOverhead)
	}
	fmt.Println()
	fmt.Print(out.Profile.String())

	if *breakdown {
		comp, comm, _ := out.Profile.Region("ATM_STEP")
		fmt.Println()
		fmt.Print(report.BarBreakdown("ATM_STEP time by process", comp, comm, 60))
	}

	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	m := &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "metum",
		ModelVersion: core.ModelVersion, Platform: p.Name,
		Knobs: map[string]string{
			"np":    strconv.Itoa(*np),
			"nodes": strconv.Itoa(*nodes),
			"steps": strconv.Itoa(cfg.Steps),
		},
		FaultSpec:      *faults,
		VirtualSeconds: out.Result.Time,
		WallSeconds:    time.Since(start).Seconds(),
		Metrics:        reg.Snapshot(true),
	}
	if plan != nil {
		m.FaultDigest = plan.Digest()
	}
	if err := obs.WriteManifest(*manifest, m); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metum:", err)
	os.Exit(1)
}
