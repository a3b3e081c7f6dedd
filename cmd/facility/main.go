// Command facility runs the multi-tenant virtual-time batch facility:
// a seeded synthetic workload (or a replayed job trace) scheduled with
// EASY backfill and decayed-usage fairshare across the paper's three
// platforms, optionally routed by a calibrated ARRIVE-F broker and
// subjected to a spot market on the EC2 pool.
//
// Usage:
//
//	facility [-jobs 2000] [-tenants 200] [-slots 256] [-seed 0]
//	         [-broker] [-spot] [-bid 0.60] [-trace jobs.txt]
//	         [-swf trace.swf] [-sched heap|sort] [-stream]
//	         [-emit-trace jobs.txt] [-manifest run.json]
//
// -swf replays a Standard Workload Format archive trace; records wider
// than the HPC partition are skipped (and counted). -stream switches to
// the streaming run path — per-job outcomes are folded into reservoir
// statistics as they complete instead of being collected, which is how
// million-job traces fit in bounded memory. -sched selects the
// incremental heap scheduler (default) or the sort-per-pass oracle it
// is validated against; both produce bit-identical schedules.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	jobs := flag.Int("jobs", 2000, "synthetic workload size (ignored with -trace)")
	tenants := flag.Int("tenants", 200, "synthetic tenant count (ignored with -trace)")
	slots := flag.Int("slots", 256, "HPC partition slots (cloud pools get half each)")
	seed := flag.Uint64("seed", 0, "base seed for workload and spot-market streams")
	broker := flag.Bool("broker", false, "calibrate an ARRIVE-F broker and route jobs across pools")
	spot := flag.Bool("spot", false, "run the EC2 pool on a simulated spot market (implies -broker)")
	bid := flag.Float64("bid", 0.60, "spot bid in $/hour")
	trace := flag.String("trace", "", "replay jobs from a trace file instead of generating")
	swf := flag.String("swf", "", "replay jobs from a Standard Workload Format trace")
	stream := flag.Bool("stream", false, "stream outcomes into reservoir statistics (bounded memory)")
	emit := flag.String("emit-trace", "", "write the workload as a replayable trace to this file and exit")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	flag.Parse()
	start := time.Now()

	var wl []facility.Job
	var err error
	switch {
	case *swf != "":
		data, rerr := os.ReadFile(*swf)
		if rerr != nil {
			fatal(rerr)
		}
		wl, err = facility.ParseSWF(data)
		if err == nil {
			kept, skipped := wl[:0], 0
			for _, j := range wl {
				if j.NP > *slots {
					skipped++
					continue
				}
				kept = append(kept, j)
			}
			wl = kept
			fmt.Printf("loaded %d jobs from %s (%d skipped: wider than the %d-slot HPC partition)\n",
				len(wl), *swf, skipped, *slots)
		}
	case *trace != "":
		data, rerr := os.ReadFile(*trace)
		if rerr != nil {
			fatal(rerr)
		}
		wl, err = facility.ParseTrace(data)
	default:
		wl, err = facility.Generate(facility.WorkloadSpec{
			Seed: *seed, Jobs: *jobs, Tenants: *tenants, Slots: *slots,
		})
	}
	if err != nil {
		fatal(err)
	}
	if *emit != "" {
		if err := os.WriteFile(*emit, facility.FormatTrace(wl), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d jobs to %s\n", len(wl), *emit)
		return
	}

	meter := &sim.Meter{}
	reg := obs.NewRegistry()
	cfg := facility.Config{
		Slots:     [facility.NumPools]int{*slots, *slots / 2, *slots / 2},
		Backfill:  true,
		Fairshare: true,
		Prices:    [facility.NumPools]float64{0, 0.34, 0.68},
		Meter:     meter,
		Metrics:   reg,
	}
	if *broker || *spot {
		fmt.Println("calibrating broker from reference runs on vayu...")
		b, err := facility.CalibrateBroker(facility.CalibrateOpts{
			Seed: *seed, Meter: meter, Metrics: reg,
		})
		if err != nil {
			fatal(err)
		}
		cfg.Broker = b
	}
	if *spot {
		sc, err := facility.MarketSpot(*seed, *bid, 24*28, 1<<28)
		if err != nil {
			fatal(err)
		}
		cfg.Spot = sc
	}

	f, err := facility.New(cfg)
	if err != nil {
		fatal(err)
	}
	var s facility.Summary
	var events int
	var digest string
	if *stream {
		ss := facility.NewStreamSummary(0, *seed)
		sd := facility.NewStreamDigest()
		sr, err := f.RunStream(wl, func(o facility.Outcome) {
			ss.Observe(o)
			sd.Observe(o)
		})
		if err != nil {
			fatal(err)
		}
		s, events, digest = ss.Summary(), sr.Events, sd.Sum(sr.Clock, sr.Events)
	} else {
		res, err := f.Run(wl)
		if err != nil {
			fatal(err)
		}
		s, events, digest = facility.Summarize(res.Outcomes, 0), res.Events, facility.Digest(res)
	}

	fmt.Printf("scheduled %d jobs (%d events, virtual makespan %.0fs)\n",
		s.Jobs, events, s.Makespan)
	fmt.Printf("  completed %d, killed at limit %d\n", s.Completed, s.Killed)
	for p, n := range s.ByPool {
		fmt.Printf("  %-5s %6d jobs\n", facility.Pool(p), n)
	}
	fmt.Printf("  queue wait  p50 %.1fs  p90 %.1fs  p99 %.1fs  max %.1fs\n",
		s.WaitP50, s.WaitP90, s.WaitP99, s.MaxWait)
	fmt.Printf("  bounded slowdown  mean %.2f  p99 %.2f\n", s.SlowMean, s.SlowP99)
	if cfg.Spot != nil {
		fmt.Printf("  spot: %d interruptions, %.0fs lost work\n", s.Interruptions, s.LostWork)
	}
	fmt.Printf("  cloud share %.1f%%, cost $%.2f\n", 100*s.CloudShare, s.Cost)
	if *stream {
		fmt.Printf("  stream digest %s\n", digest)
	} else {
		fmt.Printf("  digest %s\n", digest)
	}

	if err := obs.WriteManifest(*manifest, &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "facility",
		ModelVersion: core.ModelVersion, Seed: *seed,
		Knobs: map[string]string{
			"jobs":   strconv.Itoa(len(wl)),
			"slots":  strconv.Itoa(*slots),
			"broker": strconv.FormatBool(cfg.Broker != nil),
			"spot":   strconv.FormatBool(cfg.Spot != nil),
			"stream": strconv.FormatBool(*stream),
			"digest": digest,
		},
		Metrics:        reg.Snapshot(false),
		VirtualSeconds: meter.Total(),
		WallSeconds:    time.Since(start).Seconds(),
	}); err != nil {
		fatal(err)
	}
}

// fatal prints err under the command's name once: errors from the
// facility package already carry that prefix.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "facility:", strings.TrimPrefix(err.Error(), "facility: "))
	os.Exit(1)
}
