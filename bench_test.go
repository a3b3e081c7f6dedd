// Package repro's benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation section. Each benchmark regenerates its
// artefact (on reduced sweeps where the full figure would take minutes)
// and reports headline numbers as custom metrics, so `go test -bench=.
// -benchmem` doubles as a one-shot reproduction check.
package repro

import (
	"testing"

	"repro/internal/apps/chaste"
	"repro/internal/apps/metum"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/perfbench"
	"repro/internal/platform"
	"repro/internal/sched"
)

// BenchmarkFig1OSUBandwidth regenerates Figure 1 on a reduced size sweep
// and reports the three peak bandwidths.
func BenchmarkFig1OSUBandwidth(b *testing.B) {
	sizes := []int{64, 4096, 1 << 18, 4 << 20}
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig1OSUBandwidth(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range fig.Series {
				b.ReportMetric(s.Y[len(s.Y)-1], "MB/s-peak-"+s.Name[:3])
			}
		}
	}
}

// BenchmarkFig2OSULatency regenerates Figure 2 and reports the small-
// message latencies.
func BenchmarkFig2OSULatency(b *testing.B) {
	sizes := []int{1, 1024, 1 << 16}
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2OSULatency(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range fig.Series {
				b.ReportMetric(s.Y[0], "us-1B-"+s.Name[:3])
			}
		}
	}
}

// BenchmarkFig3NPBSerial regenerates the Figure 3 normalisation table.
func BenchmarkFig3NPBSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3NPBSerial(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4NPBScaling regenerates one Figure 4 panel per kernel
// family: EP compute-bound, CG latency-bound and FT all-to-all.
func BenchmarkFig4NPBScaling(b *testing.B) {
	for _, kernel := range []string{"ep", "cg", "ft"} {
		b.Run(kernel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig4NPBScaling(kernel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2CommFraction regenerates the Table II %comm entries at
// np=64 (the row the paper's discussion focuses on).
func BenchmarkTable2CommFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kernel := range []string{"cg", "ft", "is"} {
			fn, err := suite.Skeleton(kernel)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range platform.All() {
				out, err := core.Execute(core.RunSpec{Platform: p, NP: 64}, func(c *mpi.Comm) error {
					return fn(c, npb.ClassB)
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(out.Profile.CommPercent(), "comm%-"+kernel+"-"+p.Name)
				}
			}
		}
	}
}

// BenchmarkFig5ChasteScaling regenerates the Figure 5 endpoints: Chaste
// total/KSp times at 8 and 64 cores on Vayu and DCC.
func BenchmarkFig5ChasteScaling(b *testing.B) {
	cfg := chaste.Default()
	run := func(p *platform.Platform, np int) *chaste.Stats {
		var stats *chaste.Stats
		_, err := core.Execute(core.RunSpec{Platform: p, NP: np, MemPerRank: cfg.MemPerRank(np)},
			func(c *mpi.Comm) error {
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
			b.Fatal(err)
		}
		return stats
	}
	for i := 0; i < b.N; i++ {
		for _, p := range []*platform.Platform{platform.Vayu(), platform.DCC()} {
			t8 := run(p, 8)
			t64 := run(p, 64)
			if i == 0 {
				b.ReportMetric(t8.Total, "t8-"+p.Name)
				b.ReportMetric(t8.Total/t64.Total, "speedup64-"+p.Name)
			}
		}
	}
}

// BenchmarkFig6MetUMScaling regenerates the Figure 6 endpoints: MetUM
// warmed speedups at 64 cores for the four configurations.
func BenchmarkFig6MetUMScaling(b *testing.B) {
	cfg := metum.Default()
	run := func(p *platform.Platform, np, nodes int) *metum.Stats {
		var stats *metum.Stats
		_, err := core.Execute(core.RunSpec{Platform: p, NP: np, Nodes: nodes, MemPerRank: cfg.MemPerRank(np)},
			func(c *mpi.Comm) error {
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
			b.Fatal(err)
		}
		return stats
	}
	for i := 0; i < b.N; i++ {
		for _, v := range []struct {
			name  string
			p     *platform.Platform
			nodes int
		}{
			{"vayu", platform.Vayu(), 0},
			{"dcc", platform.DCC(), 0},
			{"ec2", platform.EC2(), 0},
			{"ec2-4", platform.EC2(), 4},
		} {
			t8 := run(v.p, 8, min(v.nodes, 4))
			t64 := run(v.p, 64, v.nodes)
			if i == 0 {
				b.ReportMetric(t8.Warmed/t64.Warmed, "speedup64-"+v.name)
			}
		}
	}
}

func min(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a < b {
		return a
	}
	return b
}

// BenchmarkTable3MetUMStats regenerates Table III and reports the headline
// ratios.
func BenchmarkTable3MetUMStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table3MetUM()
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// BenchmarkFig7Breakdown regenerates the per-process ATM_STEP breakdown.
func BenchmarkFig7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Breakdown(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuite runs every member of the committed perfbench suite —
// the message-plane, world-churn, OSU and facility benchmarks whose
// budgets `make verify` gates — as one sub-benchmark each, so `make
// bench` measures exactly what cmd/bench gates.
func BenchmarkSuite(b *testing.B) {
	for _, bench := range perfbench.Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.Op()
			}
		})
	}
}

// reproQuickJobs builds the scheduler job set the sequential/parallel
// repro benchmarks share: the quick sweep minus fig5, whose Chaste sweep
// alone would dominate the measurement, with caching off so every
// iteration simulates.
func reproQuickJobs(b *testing.B) []sched.Job {
	ids := []string{"fig1", "fig2", "fig3", "fig4", "table2", "fig6", "table3", "fig7", "chaste32"}
	jobs, err := experiments.Jobs(experiments.SweepQuick, 0, ids)
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

func benchmarkRepro(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		results, err := sched.Run(reproQuickJobs(b), sched.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var virtual float64
			for _, r := range results {
				virtual += r.Virtual
			}
			b.ReportMetric(virtual, "simulated-s")
		}
	}
}

// BenchmarkReproQuickSequential regenerates the quick artefact set on one
// worker — the baseline the parallel variant is compared against.
func BenchmarkReproQuickSequential(b *testing.B) { benchmarkRepro(b, 1) }

// BenchmarkReproQuickParallel regenerates the same set on 8 workers,
// measuring the scheduler's wall-clock win on a multi-core host.
func BenchmarkReproQuickParallel(b *testing.B) { benchmarkRepro(b, 8) }
