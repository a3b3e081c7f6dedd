// Package experiments regenerates every table and figure of the paper's
// evaluation section from the modelled platforms. Artefacts are declared
// in a registry (registry.go) whose generators run through the
// internal/sched job scheduler; the Ctx type threads the sweep resolution
// and per-job virtual-time meter through every platform run. The public
// FigN/TableN functions remain as thin full-sweep wrappers for direct
// library use (benchmarks, examples).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/chaste"
	"repro/internal/apps/metum"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ipm"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/obs"
	"repro/internal/osu"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
)

// Sweep selects how much of each artefact's parameter space is explored.
type Sweep string

const (
	// SweepFull is the paper's complete parameter space (the default).
	SweepFull Sweep = "full"
	// SweepQuick reduces message-size and kernel sweeps (cmd/repro -quick).
	SweepQuick Sweep = "quick"
	// SweepSmoke shrinks every dimension — fewer sizes, fewer process
	// counts, shortened application runs — so the whole artefact set
	// regenerates in seconds. Used by the determinism golden tests and the
	// scheduler benchmarks; the artefacts keep their shape but not their
	// paper-calibrated values.
	SweepSmoke Sweep = "smoke"
)

// ParseSweep validates a sweep name ("" means full).
func ParseSweep(s string) (Sweep, error) {
	switch Sweep(s) {
	case "", SweepFull:
		return SweepFull, nil
	case SweepQuick:
		return SweepQuick, nil
	case SweepSmoke:
		return SweepSmoke, nil
	}
	return "", fmt.Errorf("experiments: unknown sweep %q (full, quick, smoke)", s)
}

// Ctx carries one job's execution context: the sweep resolution and the
// virtual-time meter every platform run reports into. The zero value is a
// full sweep with no metering.
type Ctx struct {
	Sweep Sweep
	Meter *sim.Meter
	// Seed offsets every platform run's random streams (core.RunSpec.Seed);
	// the paper's artefacts use 0. It is part of the scheduler cache key.
	Seed uint64
	// Faults, when enabled, subjects every platform run to a
	// deterministically generated fault plan and executes it resiliently
	// (the -faults flag). Part of the cache key; the zero value leaves
	// all artefacts bit-identical to the fault-free baselines.
	Faults fault.Params
	// ForceResilient routes every platform run through the
	// checkpoint/restart machinery (mpi.RunResilient) even when no fault
	// plan is configured. An empty plan never fires, so artefacts must
	// stay bit-identical to plain execution — the zero-fault identity
	// test regenerates seed artefacts under this knob to prove it.
	ForceResilient bool
	// Metrics, when set, accumulates mpi runtime counters across every
	// platform run of the job; the registry's stable snapshot lands in
	// the artefact's run manifest.
	Metrics *obs.Registry
	// Tracer, when set, supplies an extra event observer for each
	// platform run (cmd/repro -trace hands out trace recorders here); np
	// is the run's rank count. A nil return attaches nothing.
	Tracer func(np int) mpi.Tracer
}

// tracer resolves the Ctx's tracer hook for one run.
func (x *Ctx) tracer(np int) mpi.Tracer {
	if x.Tracer == nil {
		return nil
	}
	return x.Tracer(np)
}

// sizes returns the OSU message-size sweep.
func (x *Ctx) sizes() []int {
	switch x.Sweep {
	case SweepQuick:
		return []int{1, 64, 4096, 1 << 18, 1 << 22}
	case SweepSmoke:
		return []int{1, 4096, 1 << 16}
	}
	return osu.DefaultSizes()
}

// fig4Kernels returns the kernels plotted as Figure 4 panels.
func (x *Ctx) fig4Kernels() []string {
	switch x.Sweep {
	case SweepQuick:
		return []string{"ep", "cg", "ft", "is"}
	case SweepSmoke:
		return []string{"ep", "cg"}
	}
	return npb.Names()
}

// maxNP returns the largest process count swept in scaling artefacts.
func (x *Ctx) maxNP() int {
	if x.Sweep == SweepSmoke {
		return 16
	}
	return 64
}

// table2NPs returns the Table II process counts.
func (x *Ctx) table2NPs() []int {
	if x.Sweep == SweepSmoke {
		return []int{2, 16}
	}
	return []int{2, 4, 8, 16, 32, 64}
}

// chasteNPs returns the Figure 5 process counts.
func (x *Ctx) chasteNPs() []int {
	if x.Sweep == SweepSmoke {
		return []int{8, 16}
	}
	return []int{8, 16, 32, 48, 64}
}

// metumNPs returns the Figure 6 process counts.
func (x *Ctx) metumNPs() []int {
	if x.Sweep == SweepSmoke {
		return []int{8, 16}
	}
	return []int{8, 16, 24, 32, 48, 64}
}

// chasteConfig returns the Chaste configuration for the sweep; smoke runs
// cut the timestep and solver-iteration counts so a run costs milliseconds.
func (x *Ctx) chasteConfig() chaste.Config {
	cfg := chaste.Default()
	if x.Sweep == SweepSmoke {
		cfg.Steps = 25
		cfg.KSpItersPerStep = 10
	}
	cfg.CheckpointEvery = x.Faults.CheckpointEvery
	return cfg
}

// metumConfig returns the MetUM configuration for the sweep.
func (x *Ctx) metumConfig() metum.Config {
	cfg := metum.Default()
	if x.Sweep == SweepSmoke {
		cfg.Steps = 6
		cfg.HaloSwapsPerStep = 20
		cfg.SolverItersPerStep = 15
	}
	cfg.CheckpointEvery = x.Faults.CheckpointEvery
	return cfg
}

// runSkeleton executes one NPB skeleton and returns its virtual wall time.
func (x *Ctx) runSkeleton(name string, p *platform.Platform, np int, class npb.Class) (float64, error) {
	fn, err := suite.Skeleton(name)
	if err != nil {
		return 0, err
	}
	spec := core.RunSpec{Platform: p, NP: np, Seed: x.Seed, Meter: x.Meter,
		Metrics: x.Metrics, ExtraTracer: x.tracer(np)}
	if err := x.applyFaults(&spec, p, name, np); err != nil {
		return 0, err
	}
	out, err := core.Execute(spec, func(c *mpi.Comm) error {
		return fn(c, class)
	})
	if err != nil {
		return 0, fmt.Errorf("%s.%s.%d on %s: %w", name, class, np, p.Name, err)
	}
	return out.Time(), nil
}

// osuOpts bundles the Ctx's seed and metrics for an OSU run.
func (x *Ctx) osuOpts() osu.Opts {
	return osu.Opts{Seed: x.Seed, Metrics: x.Metrics, Tracer: x.tracer(2), Meter: x.Meter}
}

// bandwidthAt returns the OSU bandwidth (MB/s) at one message size.
func (x *Ctx) bandwidthAt(p *platform.Platform, size int) (float64, error) {
	pts, err := osu.BandwidthOpts(p, []int{size}, x.osuOpts())
	if err != nil {
		return 0, err
	}
	return pts[0].Value, nil
}

// latencyAt returns the OSU latency in microseconds at one message size.
func (x *Ctx) latencyAt(p *platform.Platform, size int) (float64, error) {
	pts, err := osu.LatencyOpts(p, []int{size}, x.osuOpts())
	if err != nil {
		return 0, err
	}
	return pts[0].Value * 1e6, nil
}

// speedupAt returns one kernel's class-B speedup at np over np=1.
func (x *Ctx) speedupAt(kernel string, p *platform.Platform, np int) (float64, error) {
	t1, err := x.runSkeleton(kernel, p, 1, npb.ClassB)
	if err != nil {
		return 0, err
	}
	tn, err := x.runSkeleton(kernel, p, np, npb.ClassB)
	if err != nil {
		return 0, err
	}
	return t1 / tn, nil
}

// Fig1OSUBandwidth reproduces Figure 1: OSU point-to-point bandwidth
// between two compute nodes on the three platforms.
func (x *Ctx) Fig1OSUBandwidth(sizes []int) (*report.Figure, error) {
	if sizes == nil {
		sizes = x.sizes()
	}
	fig := &report.Figure{
		Title:  "Fig 1: OSU MPI bandwidth (MB/s) vs message size",
		XLabel: "message bytes", YLabel: "MB/s", LogX: true, LogY: true,
	}
	for _, p := range platform.All() {
		pts, err := osu.BandwidthOpts(p, sizes, x.osuOpts())
		if err != nil {
			return nil, err
		}
		s := &report.Series{Name: p.Name + " " + p.Inter.Name}
		for _, pt := range pts {
			s.Add(float64(pt.Bytes), pt.Value)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig2OSULatency reproduces Figure 2: OSU latency in microseconds.
func (x *Ctx) Fig2OSULatency(sizes []int) (*report.Figure, error) {
	if sizes == nil {
		sizes = x.sizes()
	}
	fig := &report.Figure{
		Title:  "Fig 2: OSU MPI latency (microseconds) vs message size",
		XLabel: "message bytes", YLabel: "us", LogX: true, LogY: true,
	}
	for _, p := range platform.All() {
		pts, err := osu.LatencyOpts(p, sizes, x.osuOpts())
		if err != nil {
			return nil, err
		}
		s := &report.Series{Name: p.Name + " " + p.Inter.Name}
		for _, pt := range pts {
			s.Add(float64(pt.Bytes), pt.Value*1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig3NPBSerial reproduces Figure 3: single-process class-B walltimes
// normalised to DCC, with absolute DCC seconds.
func (x *Ctx) Fig3NPBSerial() (*report.Table, error) {
	t := &report.Table{
		Title:   "Fig 3: NPB class B serial times, normalised to DCC",
		Headers: []string{"bench", "dcc (s)", "ec2 (norm)", "vayu (norm)"},
	}
	for _, name := range npb.Names() {
		times := map[string]float64{}
		for _, p := range platform.All() {
			d, err := x.runSkeleton(name, p, 1, npb.ClassB)
			if err != nil {
				return nil, err
			}
			times[p.Name] = d
		}
		norm, err := core.Normalise(times, "dcc")
		if err != nil {
			return nil, err
		}
		t.AddRow(strings.ToUpper(name)+".B.1", times["dcc"], norm["ec2"], norm["vayu"])
	}
	return t, nil
}

// Fig4NPBScaling reproduces one panel of Figure 4: the speedup curve of a
// kernel at class B on the three platforms, np up to the sweep's maximum.
func (x *Ctx) Fig4NPBScaling(kernel string) (*report.Figure, error) {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Fig 4 (%s): class B speedup", strings.ToUpper(kernel)),
		XLabel: "# of cores", YLabel: "speedup", LogX: true, LogY: true,
	}
	counts := npb.ProcCounts(kernel, x.maxNP())
	for _, p := range platform.All() {
		times := map[int]float64{}
		for _, np := range counts {
			d, err := x.runSkeleton(kernel, p, np, npb.ClassB)
			if err != nil {
				return nil, err
			}
			times[np] = d
		}
		sp, err := core.Speedup(times, counts[0])
		if err != nil {
			return nil, err
		}
		s := &report.Series{Name: p.Name}
		for _, np := range counts {
			s.Add(float64(np), sp[np])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Table2CommPercent reproduces Table II: IPM %comm for CG, FT and IS on
// the three platforms.
func (x *Ctx) Table2CommPercent() (*report.Table, error) {
	t := &report.Table{
		Title: "Table II: IPM % walltime in communication (class B)",
		Headers: []string{"np",
			"CG dcc", "CG ec2", "CG vayu",
			"FT dcc", "FT ec2", "FT vayu",
			"IS dcc", "IS ec2", "IS vayu"},
	}
	kernels := []string{"cg", "ft", "is"}
	for _, np := range x.table2NPs() {
		row := []any{np}
		for _, k := range kernels {
			for _, p := range platform.All() {
				pct, err := x.commAt(k, p, np)
				if err != nil {
					return nil, err
				}
				row = append(row, pct)
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// commAt returns one kernel's IPM %comm at np on p.
func (x *Ctx) commAt(kernel string, p *platform.Platform, np int) (float64, error) {
	fn, err := suite.Skeleton(kernel)
	if err != nil {
		return 0, err
	}
	spec := core.RunSpec{Platform: p, NP: np, Seed: x.Seed, Meter: x.Meter,
		Metrics: x.Metrics, ExtraTracer: x.tracer(np)}
	if err := x.applyFaults(&spec, p, kernel, np); err != nil {
		return 0, err
	}
	out, err := core.Execute(spec, func(c *mpi.Comm) error {
		return fn(c, npb.ClassB)
	})
	if err != nil {
		return 0, err
	}
	return out.Profile.CommPercent(), nil
}

// chasteRun executes the Chaste proxy and returns stats plus the profile.
func (x *Ctx) chasteRun(p *platform.Platform, np int) (*chaste.Stats, *core.Outcome, error) {
	cfg := x.chasteConfig()
	var stats *chaste.Stats
	spec := core.RunSpec{
		Platform: p, NP: np, MemPerRank: cfg.MemPerRank(np), Seed: x.Seed,
		Meter: x.Meter, Metrics: x.Metrics, ExtraTracer: x.tracer(np),
	}
	if err := x.applyFaults(&spec, p, "chaste", np); err != nil {
		return nil, nil, err
	}
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
		return nil, nil, err
	}
	return stats, out, nil
}

// Fig5Chaste reproduces Figure 5: Chaste total and KSp-section speedups
// over 8 cores on Vayu and DCC.
func (x *Ctx) Fig5Chaste() (*report.Figure, error) {
	fig := &report.Figure{
		Title:  "Fig 5: Chaste speedup over 8 cores (total and KSp)",
		XLabel: "# of cores", YLabel: "speedup", LogX: true, LogY: true,
	}
	nps := x.chasteNPs()
	for _, p := range []*platform.Platform{platform.Vayu(), platform.DCC()} {
		total := map[int]float64{}
		ksp := map[int]float64{}
		for _, np := range nps {
			s, _, err := x.chasteRun(p, np)
			if err != nil {
				return nil, err
			}
			total[np], ksp[np] = s.Total, s.KSp
		}
		for _, series := range []struct {
			name  string
			times map[int]float64
		}{
			{p.Name + " total (t8=" + report.FormatFloat(total[8]) + ")", total},
			{p.Name + " KSp (t8=" + report.FormatFloat(ksp[8]) + ")", ksp},
		} {
			sp, err := core.Speedup(series.times, 8)
			if err != nil {
				return nil, err
			}
			s := &report.Series{Name: series.name}
			for _, np := range nps {
				s.Add(float64(np), sp[np])
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// umRun executes the MetUM proxy on p with an explicit node count (0 =
// memory-driven minimum).
func (x *Ctx) umRun(p *platform.Platform, np, nodes int) (*metum.Stats, *core.Outcome, error) {
	cfg := x.metumConfig()
	var stats *metum.Stats
	spec := core.RunSpec{
		Platform: p, NP: np, Nodes: nodes, MemPerRank: cfg.MemPerRank(np), Seed: x.Seed,
		Meter: x.Meter, Metrics: x.Metrics, ExtraTracer: x.tracer(np),
	}
	if err := x.applyFaults(&spec, p, "metum", np); err != nil {
		return nil, nil, err
	}
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
		return nil, nil, err
	}
	return stats, out, nil
}

// Fig6MetUM reproduces Figure 6: MetUM warmed-time speedups over 8 cores
// on Vayu, DCC, EC2 (default placement) and EC2-4 (four nodes).
func (x *Ctx) Fig6MetUM() (*report.Figure, error) {
	fig := &report.Figure{
		Title:  "Fig 6: MetUM warmed speedup over 8 cores",
		XLabel: "# of cores", YLabel: "speedup", LogX: true, LogY: true,
	}
	nps := x.metumNPs()
	type variant struct {
		name  string
		p     *platform.Platform
		nodes func(np int) int
	}
	variants := []variant{
		{"vayu", platform.Vayu(), func(int) int { return 0 }},
		{"dcc", platform.DCC(), func(int) int { return 0 }},
		{"ec2", platform.EC2(), func(int) int { return 0 }},
		{"ec2-4", platform.EC2(), func(int) int { return 4 }},
	}
	for _, v := range variants {
		times := map[int]float64{}
		for _, np := range nps {
			s, _, err := x.umRun(v.p, np, v.nodes(np))
			if err != nil {
				return nil, err
			}
			times[np] = s.Warmed
		}
		sp, err := core.Speedup(times, 8)
		if err != nil {
			return nil, err
		}
		s := &report.Series{Name: v.name + " (t8=" + report.FormatFloat(times[8]) + ")"}
		for _, np := range nps {
			s.Add(float64(np), sp[np])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Table3MetUM reproduces Table III: MetUM statistics at 32 cores.
func (x *Ctx) Table3MetUM() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table III: MetUM at 32 cores",
		Headers: []string{"metric", "vayu", "dcc", "ec2", "ec2-4"},
	}
	type row struct {
		stats *metum.Stats
		out   *core.Outcome
	}
	var rows []row
	configs := []struct {
		p     *platform.Platform
		nodes int
	}{
		{platform.Vayu(), 0}, {platform.DCC(), 0}, {platform.EC2(), 2}, {platform.EC2(), 4},
	}
	for _, cse := range configs {
		s, o, err := x.umRun(cse.p, 32, cse.nodes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{s, o})
	}
	vayu := rows[0]
	add := func(metric string, f func(r row) float64) {
		t.AddRow(metric, f(rows[0]), f(rows[1]), f(rows[2]), f(rows[3]))
	}
	add("time(s)", func(r row) float64 { return r.stats.Total })
	add("rcomp", func(r row) float64 { return r.out.Profile.Comp.Sum() / vayu.out.Profile.Comp.Sum() })
	add("rcomm", func(r row) float64 { return r.out.Profile.Comm.Sum() / vayu.out.Profile.Comm.Sum() })
	add("%comm", func(r row) float64 { return r.out.Profile.CommPercent() })
	add("%imbal", func(r row) float64 { return r.out.Profile.LoadImbalancePercent() })
	add("I/O (s)", func(r row) float64 { return r.stats.IO })
	return t, nil
}

// Fig7Breakdown reproduces Figure 7: the per-process computation vs
// communication breakdown of the UM ATM_STEP section at 32 cores on Vayu
// and DCC.
func (x *Ctx) Fig7Breakdown() (string, error) {
	var b strings.Builder
	for _, p := range []*platform.Platform{platform.Vayu(), platform.DCC()} {
		_, out, err := x.umRun(p, 32, 0)
		if err != nil {
			return "", err
		}
		comp, comm, _ := out.Profile.Region("ATM_STEP")
		b.WriteString(report.BarBreakdown(
			fmt.Sprintf("Fig 7 (%s): UM ATM_STEP time by process, 32 cores", p.Name),
			comp, comm, 60))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Chaste32Prose reproduces the 32-core IPM analysis quoted in Section
// V.C.1: %comm per platform, the computation ratio and the KSp
// communication ratio.
func (x *Ctx) Chaste32Prose() (*report.Table, error) {
	t := &report.Table{
		Title:   "Chaste at 32 cores (paper prose: 48% comm DCC, 11% Vayu, comp ratio 1.5, KSp comm ratio ~13x)",
		Headers: []string{"metric", "vayu", "dcc"},
	}
	_, vo, err := x.chasteRun(platform.Vayu(), 32)
	if err != nil {
		return nil, err
	}
	_, do, err := x.chasteRun(platform.DCC(), 32)
	if err != nil {
		return nil, err
	}
	t.AddRow("%comm", vo.Profile.CommPercent(), do.Profile.CommPercent())
	t.AddRow("computation ratio (vs vayu)", 1.0, do.Profile.Comp.Sum()/vo.Profile.Comp.Sum())
	_, vksp, _ := vo.Profile.Region("KSp")
	_, dksp, _ := do.Profile.Region("KSp")
	t.AddRow("KSp comm ratio (vs vayu)", 1.0, dksp.Sum()/vksp.Sum())
	return t, nil
}

// Compatibility wrappers: the original one-function-per-artefact API,
// evaluated at the full sweep with no metering.

// Fig1OSUBandwidth reproduces Figure 1 (full sweep when sizes is nil).
func Fig1OSUBandwidth(sizes []int) (*report.Figure, error) {
	return (&Ctx{}).Fig1OSUBandwidth(sizes)
}

// Fig2OSULatency reproduces Figure 2 (full sweep when sizes is nil).
func Fig2OSULatency(sizes []int) (*report.Figure, error) {
	return (&Ctx{}).Fig2OSULatency(sizes)
}

// Fig3NPBSerial reproduces Figure 3.
func Fig3NPBSerial() (*report.Table, error) { return (&Ctx{}).Fig3NPBSerial() }

// Fig4NPBScaling reproduces one Figure 4 panel at the full sweep.
func Fig4NPBScaling(kernel string) (*report.Figure, error) {
	return (&Ctx{}).Fig4NPBScaling(kernel)
}

// Table2CommPercent reproduces Table II at the full sweep.
func Table2CommPercent() (*report.Table, error) { return (&Ctx{}).Table2CommPercent() }

// Fig5Chaste reproduces Figure 5.
func Fig5Chaste() (*report.Figure, error) { return (&Ctx{}).Fig5Chaste() }

// Fig6MetUM reproduces Figure 6.
func Fig6MetUM() (*report.Figure, error) { return (&Ctx{}).Fig6MetUM() }

// Table3MetUM reproduces Table III.
func Table3MetUM() (*report.Table, error) { return (&Ctx{}).Table3MetUM() }

// Fig7Breakdown reproduces Figure 7.
func Fig7Breakdown() (string, error) { return (&Ctx{}).Fig7Breakdown() }

// Chaste32Prose reproduces the Section V.C.1 Chaste IPM numbers.
func Chaste32Prose() (*report.Table, error) { return (&Ctx{}).Chaste32Prose() }

// UMProfile exposes the IPM profile of one UM run for downstream analysis
// (used by the cloudburst example and the arrive package tests).
func UMProfile(p *platform.Platform, np int) (*ipm.Profile, error) {
	_, out, err := (&Ctx{}).umRun(p, np, 0)
	if err != nil {
		return nil, err
	}
	return out.Profile, nil
}

// Placement echoes the cluster decision for documentation purposes.
func Placement(p *platform.Platform, np int, memPerRank int64) (string, error) {
	nodes, err := cluster.MinNodesFor(p, np, memPerRank)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d ranks on %d %s nodes", np, nodes, p.Name), nil
}
