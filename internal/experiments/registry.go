package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Kind classifies an artefact's rendering.
type Kind string

const (
	// KindFigure renders as CSV plus an ASCII log-log plot.
	KindFigure Kind = "figure"
	// KindTable renders as CSV plus an aligned text table.
	KindTable Kind = "table"
	// KindText renders as plain text only.
	KindText Kind = "text"
)

// Artefact declares one regenerable output of the paper's evaluation
// section: its identity, kind and a generator that produces the rendered
// files (base name -> bytes) for a given Ctx.
type Artefact struct {
	ID   string
	Kind Kind
	Desc string
	Gen  func(x *Ctx) (map[string][]byte, error)
}

// figureFiles renders a figure artefact's standard file pair.
func figureFiles(base string, fig *report.Figure, err error) (map[string][]byte, error) {
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		base + ".csv": []byte(fig.CSV()),
		base + ".txt": []byte(fig.ASCII(64, 16)),
	}, nil
}

// tableFiles renders a table artefact's standard file pair.
func tableFiles(base string, t *report.Table, err error) (map[string][]byte, error) {
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		base + ".csv": []byte(t.CSV()),
		base + ".txt": []byte(t.Render()),
	}, nil
}

// Registry returns the paper's artefacts in presentation order.
func Registry() []Artefact {
	return []Artefact{
		{ID: "fig1", Kind: KindFigure, Desc: "OSU point-to-point bandwidth",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				fig, err := x.Fig1OSUBandwidth(nil)
				return figureFiles("fig1_osu_bandwidth", fig, err)
			}},
		{ID: "fig2", Kind: KindFigure, Desc: "OSU point-to-point latency",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				fig, err := x.Fig2OSULatency(nil)
				return figureFiles("fig2_osu_latency", fig, err)
			}},
		{ID: "fig3", Kind: KindTable, Desc: "NPB class B serial times",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.Fig3NPBSerial()
				return tableFiles("fig3_npb_serial", t, err)
			}},
		{ID: "fig4", Kind: KindFigure, Desc: "NPB class B speedup panels",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				files := map[string][]byte{}
				for _, k := range x.fig4Kernels() {
					fig, ferr := x.Fig4NPBScaling(k)
					panel, err := figureFiles("fig4_"+k+"_scaling", fig, ferr)
					if err != nil {
						return nil, err
					}
					for name, data := range panel {
						files[name] = data
					}
				}
				return files, nil
			}},
		{ID: "table2", Kind: KindTable, Desc: "IPM %comm for CG/FT/IS",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.Table2CommPercent()
				return tableFiles("table2_comm_percent", t, err)
			}},
		{ID: "fig5", Kind: KindFigure, Desc: "Chaste speedup over 8 cores",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				fig, err := x.Fig5Chaste()
				return figureFiles("fig5_chaste_speedup", fig, err)
			}},
		{ID: "fig6", Kind: KindFigure, Desc: "MetUM warmed speedup",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				fig, err := x.Fig6MetUM()
				return figureFiles("fig6_metum_speedup", fig, err)
			}},
		{ID: "table3", Kind: KindTable, Desc: "MetUM statistics at 32 cores",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.Table3MetUM()
				return tableFiles("table3_metum_32", t, err)
			}},
		{ID: "fig7", Kind: KindText, Desc: "UM ATM_STEP per-process breakdown",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				txt, err := x.Fig7Breakdown()
				if err != nil {
					return nil, err
				}
				return map[string][]byte{"fig7_breakdown.txt": []byte(txt)}, nil
			}},
		{ID: "chaste32", Kind: KindTable, Desc: "Chaste 32-core IPM prose numbers",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.Chaste32Prose()
				return tableFiles("chaste32_ipm", t, err)
			}},
		{ID: "fault1", Kind: KindTable, Desc: "MetUM time-to-solution vs MTBF x checkpoint policy",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.TableE12Faults()
				return tableFiles("fault1_e12_resilience", t, err)
			}},
		{ID: "pdes1", Kind: KindFigure, Desc: "NPB class B skeletons at 1k-16k ranks (scaled vayu)",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				fig, err := x.FigE13PDESScale()
				return figureFiles("pdes1_e13_scale", fig, err)
			}},
		{ID: "fac1", Kind: KindTable, Desc: "multi-tenant facility: scheduling scenario outcomes",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.TableE14Facility()
				return tableFiles("fac1_e14_facility", t, err)
			}},
		{ID: "fac2", Kind: KindTable, Desc: "facility scale ladder: streaming statistics to 10^6 jobs",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				t, err := x.TableE15FacilityScale()
				return tableFiles("fac2_e15_facility_scale", t, err)
			}},
		{ID: "drift1", Kind: KindFigure, Desc: "weekly platform drift of the OSU/NPB probe set",
			Gen: func(x *Ctx) (map[string][]byte, error) {
				fig, err := x.FigE16Drift()
				return figureFiles("drift1_e16_drift", fig, err)
			}},
	}
}

// KnownIDs returns every registered artefact ID in presentation order.
func KnownIDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, a := range reg {
		ids[i] = a.ID
	}
	return ids
}

// Select resolves a subset of artefact IDs (nil or empty selects all) in
// registry order, rejecting unknown keys with the known-key list — so a
// typo like "fig9" errors out instead of silently running nothing.
func Select(ids []string) ([]Artefact, error) {
	reg := Registry()
	if len(ids) == 0 {
		return reg, nil
	}
	byID := make(map[string]Artefact, len(reg))
	for _, a := range reg {
		byID[a.ID] = a
	}
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := byID[id]; !ok {
			known := KnownIDs()
			sort.Strings(known)
			return nil, fmt.Errorf("experiments: unknown artefact %q (known: %s)",
				id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	var sel []Artefact
	for _, a := range reg {
		if want[a.ID] {
			sel = append(sel, a)
		}
	}
	return sel, nil
}

// cacheKey builds the content-address of one artefact computation. The
// faults fragment is included only when fault injection is configured,
// so pre-existing fault-free cache entries stay valid. The manifest
// fragment versions the sibling manifest file each job now emits:
// changing the manifest layout invalidates cached file sets (which
// embed the manifest) without bumping ModelVersion, so the artefact
// bytes themselves are unaffected.
func cacheKey(id string, sweep Sweep, seed uint64, faults fault.Params) *sched.Key {
	params := "sweep=" + string(sweep)
	if f := faults.String(); f != "" {
		params += ",faults={" + f + "}"
	}
	params += ",manifest=v1"
	return &sched.Key{
		Experiment:   id,
		Params:       params,
		Seed:         seed,
		ModelVersion: core.ModelVersion,
	}
}

// Jobs converts the selected artefacts (nil = all) into scheduler jobs at
// the given sweep. Seed offsets every experiment's random streams and is
// part of the cache key; the paper's artefacts use seed 0.
func Jobs(sweep Sweep, seed uint64, ids []string) ([]sched.Job, error) {
	return JobsFaults(sweep, seed, fault.Params{}, ids)
}

// JobsFaults is Jobs with a fault-injection configuration (cmd/repro
// -faults): every NPB-skeleton and application run inside each artefact
// is subjected to the deterministically generated plan and executed
// resiliently (the two-rank OSU calibration microbenchmarks stay
// fault-free). The params are part of each job's cache key.
func JobsFaults(sweep Sweep, seed uint64, faults fault.Params, ids []string) ([]sched.Job, error) {
	return JobsTraced(sweep, seed, faults, ids, nil)
}

// JobsTraced is JobsFaults with a per-run tracer hook (cmd/repro -trace).
// Traced jobs carry no cache key: a timeline only exists when the
// simulation actually runs, so tracing always forces a cold run without
// touching the cache.
func JobsTraced(sweep Sweep, seed uint64, faults fault.Params, ids []string,
	tracer func(np int) mpi.Tracer) ([]sched.Job, error) {
	if sweep == "" {
		sweep = SweepFull
	}
	sel, err := Select(ids)
	if err != nil {
		return nil, err
	}
	jobs := make([]sched.Job, 0, len(sel))
	for _, a := range sel {
		a := a
		key := cacheKey(a.ID, sweep, seed, faults)
		if tracer != nil {
			key = nil
		}
		jobs = append(jobs, sched.Job{
			ID:  a.ID,
			Key: key,
			Run: func(ctx *sched.Ctx) (map[string][]byte, error) {
				reg := obs.NewRegistry()
				x := &Ctx{Sweep: sweep, Seed: seed, Faults: faults,
					Meter: ctx.Meter(), Metrics: reg, Tracer: tracer}
				files, err := a.Gen(x)
				if err != nil {
					return nil, err
				}
				man, err := artefactManifest(a.ID, sweep, seed, faults, ctx.Meter(), reg, files)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s manifest: %w", a.ID, err)
				}
				files[a.ID+".manifest.json"] = man
				return files, nil
			},
		})
	}
	return jobs, nil
}

// artefactManifest builds the provenance record emitted next to one
// artefact's files. It is deterministic: the metrics snapshot excludes
// volatile (scheduling-dependent) series, WallSeconds stays zero, and
// the artefact hashes are pure functions of the generated bytes — so
// regenerating an artefact regenerates its manifest byte-identically.
func artefactManifest(id string, sweep Sweep, seed uint64, faults fault.Params,
	meter *sim.Meter, reg *obs.Registry, files map[string][]byte) ([]byte, error) {
	m := &obs.Manifest{
		Schema:       obs.ManifestSchema,
		Binary:       "repro",
		Artefact:     id,
		ModelVersion: core.ModelVersion,
		Seed:         seed,
		Knobs:        map[string]string{"sweep": string(sweep)},
		FaultSpec:    faults.String(),
		Metrics:      reg.Snapshot(false),
		Artefacts:    obs.HashArtefacts(files),
	}
	if meter != nil {
		m.VirtualSeconds = meter.Total()
	}
	return m.Encode()
}
