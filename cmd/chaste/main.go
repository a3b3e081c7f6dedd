// Command chaste runs the Chaste cardiac-simulation proxy on a modelled
// platform and prints per-section timings and an IPM-style report.
//
// Usage:
//
//	chaste -platform dcc -np 32 [-trace t.json] [-manifest m.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/apps/chaste"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/trace"
)

func main() {
	platName := flag.String("platform", "vayu", "platform: vayu, dcc or ec2")
	np := flag.Int("np", 32, "process count")
	steps := flag.Int("steps", 0, "override timestep count (0 = paper's 250)")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	faults := flag.String("faults", "",
		"fault injection, e.g. mtbf=600,ckpt=25 (keys: mtbf, straggle, slow, degrade, dlat, dbw, horizon, ckpt, seed)")
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
	cfg := chaste.Default()
	if *steps > 0 {
		cfg.Steps = *steps
	}
	cfg.CheckpointEvery = fp.CheckpointEvery
	reg := obs.NewRegistry()
	spec := core.RunSpec{
		Platform: p, NP: *np, MemPerRank: cfg.MemPerRank(*np),
		ExtraTracer: sink.Tracer(*np), Metrics: reg,
	}
	var plan *fault.Plan
	if fp.Enabled() {
		plan, err = fault.Generate(fp.Spec, p.Name, "chaste", *np, p.Nodes, fp.Seed)
		if err != nil {
			fatal(err)
		}
		spec.Faults = plan
		spec.Resilient = true
	}
	var stats *chaste.Stats
	out, err := core.Execute(spec, func(c *mpi.Comm) error {
		s, err := chaste.Run(c, cfg)
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

	fmt.Printf("Chaste rabbit heart (%d nodes, %d elements) on %s, np=%d\n",
		cfg.MeshNodes, cfg.MeshElements, p.Name, *np)
	fmt.Printf("  total   %8.1f s\n", stats.Total)
	fmt.Printf("  input   %8.1f s\n", stats.Input)
	fmt.Printf("  KSp     %8.1f s\n", stats.KSp)
	fmt.Printf("  output  %8.1f s\n", stats.Output)
	fmt.Printf("  %%comm   %8.1f\n", out.Profile.CommPercent())
	fmt.Printf("  %%wait   %8.1f (of comm)\n", out.Profile.WaitPercent())
	if rs := out.Resilience; rs != nil && (rs.Restarts > 0 || rs.Checkpoints > 0) {
		fmt.Printf("  faults  %d restart(s), %d checkpoint(s), %.1f s lost, %.1f s restart cost\n",
			rs.Restarts, rs.Checkpoints, rs.LostWork, rs.RestartOverhead)
	}
	fmt.Println()
	fmt.Print(out.Profile.String())

	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	m := &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "chaste",
		ModelVersion: core.ModelVersion, Platform: p.Name,
		Knobs: map[string]string{
			"np":    strconv.Itoa(*np),
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
	fmt.Fprintln(os.Stderr, "chaste:", err)
	os.Exit(1)
}
