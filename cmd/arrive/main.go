// Command arrive profiles the MetUM benchmark once (on Vayu) and prints
// ARRIVE-F-style platform recommendations: predicted runtimes on each
// platform, the workload classification, and whether it is a cloudburst
// candidate.
//
// Usage:
//
//	arrive [-np 32]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/arrive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
)

func main() {
	np := flag.Int("np", 32, "process count to profile and predict at")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	flag.Parse()
	start := time.Now()
	if *np < 1 {
		fatal(fmt.Errorf("-np must be at least 1, got %d", *np))
	}

	src := platform.Vayu()
	fmt.Printf("profiling MetUM at np=%d on %s...\n", *np, src.Name)
	prof, err := experiments.UMProfile(src, *np)
	if err != nil {
		fatal(err)
	}
	pl, err := cluster.Place(src, cluster.Spec{NP: *np})
	if err != nil {
		fatal(err)
	}
	w := arrive.FromProfile("metum", prof, src, pl.MaxRanksPerNode())

	fmt.Printf("classification: %s (cloud candidate within 1.5x: %v, predicted EC2 slowdown %.2fx)\n\n",
		w.Classify(), w.CloudFriendly(platform.EC2(), 1.5), w.Slowdown(platform.EC2()))
	fmt.Println("predicted runtimes:")
	for _, pred := range w.Recommend(platform.All()) {
		fmt.Println("  " + pred.String())
	}

	if err := obs.WriteManifest(*manifest, &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "arrive",
		ModelVersion: core.ModelVersion, Platform: src.Name,
		Knobs:          map[string]string{"np": strconv.Itoa(*np)},
		VirtualSeconds: prof.Time(),
		WallSeconds:    time.Since(start).Seconds(),
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arrive:", err)
	os.Exit(1)
}
