package chaste

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// runChaste simulates one (platform, np) point. Runs are deterministic,
// and the tests below revisit the same points (the 8- and 64-core runs
// appear in four tests each), so results are memoized: each point
// simulates once per `go test` invocation. This matters most under
// -race, where a full Chaste run costs tens of wall seconds.
var chasteMemo sync.Map // "platform/np" -> chasteResult

type chasteResult struct {
	stats *Stats
	out   *core.Outcome
	err   error
}

func runChaste(t *testing.T, p *platform.Platform, np int) (*Stats, *core.Outcome) {
	t.Helper()
	key := fmt.Sprintf("%s/%d", p.Name, np)
	if r, ok := chasteMemo.Load(key); ok {
		res := r.(chasteResult)
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.stats, res.out
	}
	cfg := Default()
	var stats *Stats
	out, err := core.Execute(core.RunSpec{
		Platform: p, NP: np, Policy: cluster.Block,
		MemPerRank: cfg.MemPerRank(np),
	}, func(c *mpi.Comm) error {
		s, err := Run(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			stats = s
		}
		return nil
	})
	chasteMemo.Store(key, chasteResult{stats: stats, out: out, err: err})
	if err != nil {
		t.Fatal(err)
	}
	return stats, out
}

func TestBoundaryShrinksWithRanks(t *testing.T) {
	b8 := boundaryNodes(4_000_000, 8)
	b64 := boundaryNodes(4_000_000, 64)
	if b64 >= b8 {
		t.Fatalf("boundary at 64 (%d) should be below 8 (%d)", b64, b8)
	}
	if b8 <= 0 {
		t.Fatal("boundary must be positive")
	}
}

func TestFig5Calibration(t *testing.T) {
	// Figure 5 (with the t8 label swap documented in DESIGN.md):
	// Vayu t8 ~1017 s with KSp ~579 s; DCC t8 ~1599 s with KSp ~938 s.
	vs, _ := runChaste(t, platform.Vayu(), 8)
	ds, _ := runChaste(t, platform.DCC(), 8)
	t.Logf("vayu t8: total=%.0f ksp=%.0f input=%.0f output=%.0f", vs.Total, vs.KSp, vs.Input, vs.Output)
	t.Logf("dcc  t8: total=%.0f ksp=%.0f input=%.0f output=%.0f", ds.Total, ds.KSp, ds.Input, ds.Output)
	if vs.Total < 850 || vs.Total > 1250 {
		t.Errorf("Vayu t8 = %.0f, want ~1017", vs.Total)
	}
	if vs.KSp < 480 || vs.KSp > 700 {
		t.Errorf("Vayu KSp t8 = %.0f, want ~579", vs.KSp)
	}
	if ds.Total < 1300 || ds.Total > 1950 {
		t.Errorf("DCC t8 = %.0f, want ~1599", ds.Total)
	}
	if ds.KSp < 780 || ds.KSp > 1150 {
		t.Errorf("DCC KSp t8 = %.0f, want ~938", ds.KSp)
	}
}

func TestIPM32CoreProse(t *testing.T) {
	// "the benchmark spent 48% of its time in communication on DCC, and
	// only 11% on Vayu"; computation ratio ~1.5; KSp comm ratio ~13x.
	_, vo := runChaste(t, platform.Vayu(), 32)
	_, do := runChaste(t, platform.DCC(), 32)
	vp, dp := vo.Profile.CommPercent(), do.Profile.CommPercent()
	t.Logf("comm%%: vayu=%.1f dcc=%.1f", vp, dp)
	if vp > 20 {
		t.Errorf("Vayu %%comm = %.1f, want ~11", vp)
	}
	if dp < 30 || dp > 65 {
		t.Errorf("DCC %%comm = %.1f, want ~48", dp)
	}
	rcomp := do.Profile.Comp.Sum() / vo.Profile.Comp.Sum()
	t.Logf("rcomp=%.2f", rcomp)
	if rcomp < 1.25 || rcomp > 1.8 {
		t.Errorf("computation ratio = %.2f, want ~1.5", rcomp)
	}
	_, vKSpComm, _ := vo.Profile.Region("KSp")
	_, dKSpComm, _ := do.Profile.Region("KSp")
	kspRatio := dKSpComm.Sum() / vKSpComm.Sum()
	t.Logf("KSp comm ratio=%.1f", kspRatio)
	if kspRatio < 5 || kspRatio > 25 {
		t.Errorf("KSp communication ratio = %.1f, want ~13", kspRatio)
	}
}

func TestFig5ScalingShape(t *testing.T) {
	// Vayu scales much better than DCC; KSp drives the total's trend.
	times := func(p *platform.Platform) (total, ksp map[int]float64) {
		total, ksp = map[int]float64{}, map[int]float64{}
		for _, np := range []int{8, 16, 32, 64} {
			s, _ := runChaste(t, p, np)
			total[np], ksp[np] = s.Total, s.KSp
		}
		return
	}
	vt, vk := times(platform.Vayu())
	dt, dk := times(platform.DCC())
	vsp, _ := core.Speedup(vt, 8)
	dsp, _ := core.Speedup(dt, 8)
	vksp, _ := core.Speedup(vk, 8)
	dksp, _ := core.Speedup(dk, 8)
	t.Logf("total speedup@64: vayu=%.2f dcc=%.2f; KSp: vayu=%.2f dcc=%.2f",
		vsp[64], dsp[64], vksp[64], dksp[64])
	if vsp[64] < 2.5 {
		t.Errorf("Vayu total speedup at 64 = %.2f, want > 2.5", vsp[64])
	}
	if dsp[64] >= vsp[64]*0.8 {
		t.Errorf("DCC speedup %.2f should clearly trail Vayu %.2f", dsp[64], vsp[64])
	}
	if vksp[64] < vsp[64] {
		t.Errorf("KSp speedup %.2f should lead the total %.2f on Vayu", vksp[64], vsp[64])
	}
}

func TestOutputScalesInverselyOnVayuOnly(t *testing.T) {
	// "At 8 cores, the output routine was 2.6 times faster on Vayu;
	// surprisingly however its performance remained constant on DCC, but
	// scaled inversely on Vayu."
	v8, _ := runChaste(t, platform.Vayu(), 8)
	v64, _ := runChaste(t, platform.Vayu(), 64)
	d8, _ := runChaste(t, platform.DCC(), 8)
	d64, _ := runChaste(t, platform.DCC(), 64)
	t.Logf("output: vayu 8->64 %.1f->%.1f; dcc %.1f->%.1f", v8.Output, v64.Output, d8.Output, d64.Output)
	if v64.Output <= v8.Output {
		t.Errorf("Vayu output should scale inversely: %.1f -> %.1f", v8.Output, v64.Output)
	}
	if rel := d64.Output / d8.Output; rel < 0.7 || rel > 1.3 {
		t.Errorf("DCC output should stay ~constant: %.1f -> %.1f", d8.Output, d64.Output)
	}
	if ratio := d8.Output / v8.Output; ratio < 1.8 || ratio > 4 {
		t.Errorf("output at 8 cores: DCC/Vayu = %.1f, want ~2.6", ratio)
	}
}

func TestInputSectionMostlySerial(t *testing.T) {
	// "The input mesh section ... scaled identically on both systems (1.25
	// speedup at 64 cores over 8)" and was 1.37x faster on Vayu.
	v8, _ := runChaste(t, platform.Vayu(), 8)
	v64, _ := runChaste(t, platform.Vayu(), 64)
	sp := v8.Input / v64.Input
	t.Logf("input: vayu 8=%.1f 64=%.1f speedup=%.2f", v8.Input, v64.Input, sp)
	if sp < 1.05 || sp > 1.6 {
		t.Errorf("input speedup 8->64 = %.2f, want ~1.25", sp)
	}
	d8, _ := runChaste(t, platform.DCC(), 8)
	if ratio := d8.Input / v8.Input; ratio < 1.15 || ratio > 1.9 {
		t.Errorf("input DCC/Vayu at 8 = %.2f, want ~1.4", ratio)
	}
}

func TestEC2ExtensionRuns(t *testing.T) {
	// The paper could not install Chaste on EC2 in time; our model can run
	// it — an extension experiment (see EXPERIMENTS.md).
	s, _ := runChaste(t, platform.EC2(), 16)
	if s.Total <= 0 {
		t.Fatal("EC2 Chaste run produced no time")
	}
}

// TestRunsWithMorePairsThanRanks covers a ring with more neighbour
// distances than ranks: at 2 ranks the default six neighbours reach
// distance 3, so rank-3 must wrap modulo the size to a valid rank.
func TestRunsWithMorePairsThanRanks(t *testing.T) {
	cfg := Default()
	cfg.Steps = 1
	if _, err := mpi.RunOn(platform.Vayu(), 2, func(c *mpi.Comm) error {
		_, err := Run(c, cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero-steps", func(c *Config) { c.Steps = 0 }, "step count"},
		{"zero-neighbours", func(c *Config) { c.Neighbours = 0 }, "Neighbours 0"},
		{"negative-neighbours", func(c *Config) { c.Neighbours = -2 }, "Neighbours -2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.edit(&cfg)
			_, err := mpi.RunOn(platform.Vayu(), 2, func(c *mpi.Comm) error {
				_, err := Run(c, cfg)
				return err
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "panicked") {
				t.Fatalf("got %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
