package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sched"
)

// sample is what one run of a workload produced.
type sample struct {
	// files are the outputs the output check compares; digest hashes
	// them.
	files  map[string][]byte
	digest string
	// counts are exact work counts (mpi registry counters, facility
	// events); they must repeat exactly across runs.
	counts map[string]int64
}

// traceRun collects the per-layer observations of one traced run.
type traceRun struct {
	clock   func() int64 // host nanoseconds since the traced phase began
	hists   *[numHists]gapHist
	tracers []*callTracer
	spans   map[string]float64 // host seconds per span name
}

func newTraceRun(base time.Time, hists *[numHists]gapHist) *traceRun {
	clock := func() int64 { return int64(time.Since(base)) }
	return &traceRun{clock: clock, hists: hists, spans: map[string]float64{}}
}

// tracer is the per-platform-run hook handed to experiments.JobsTraced:
// each call marks the start of one core.Execute.
func (tr *traceRun) tracer(np int) mpi.Tracer {
	t := newCallTracer(tr.clock, np, tr.hists)
	tr.tracers = append(tr.tracers, t)
	return t
}

// prepared is a workload after set-up.
type prepared struct {
	// run performs one run; tr is nil for an untraced run.
	run func(tr *traceRun) (*sample, error)
	// golden, when set (seed 0), is what every run's files must equal.
	golden map[string][]byte
	// guards are counts a run must reproduce exactly, so a change cannot
	// look faster by doing less work.
	guards map[string]int64
}

// workload is one benchmark workload; setup loads its references and
// warms it up, and is timed as setup_s.
type workload struct {
	name  string
	setup func(root string, seed uint64) (*prepared, error)
}

var workloads = []workload{
	{"chaste32", artefactSetup("chaste32", map[string]int64{"mpi.sends": 12801022}, nil)},
	{"fac2", artefactSetup("fac2", nil, map[string]int64{"facility.events": 2220104})},
}

// manifestCounters maps the mpi registry counters of an artefact
// manifest to the benchmark's metric names.
var manifestCounters = map[string]string{
	"mpi_sends_total":      "mpi.sends",
	"mpi_send_bytes_total": "mpi.send_bytes",
	"mpi_recvs_total":      "mpi.recvs",
	"mpi_eager_total":      "mpi.eager",
	"mpi_rendezvous_total": "mpi.rendezvous",
}

// artefactSetup builds an artefact workload: one cold regeneration of
// artefact id at the full sweep through sched.Run with one worker and
// no cache. guards hold at every seed; seed0Guards only at seed 0, where
// the outputs must also equal the committed results/ bytes.
func artefactSetup(id string, guards, seed0Guards map[string]int64) func(string, uint64) (*prepared, error) {
	return func(root string, seed uint64) (*prepared, error) {
		golden, err := loadGolden(filepath.Join(root, "results"), id)
		if err != nil {
			return nil, err
		}
		// Warm-up: the smoke sweep of the same artefact fills the
		// runtime's pools and lazy state before any timed run.
		if _, err := regenerate(id, experiments.SweepSmoke, seed, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p := &prepared{guards: map[string]int64{}}
		for k, v := range guards {
			p.guards[k] = v
		}
		if seed == 0 {
			p.golden = golden
			for k, v := range seed0Guards {
				p.guards[k] = v
			}
		}
		p.run = func(tr *traceRun) (*sample, error) {
			var hook func(np int) mpi.Tracer
			if tr != nil {
				hook = tr.tracer
			}
			start := time.Now()
			files, err := regenerate(id, experiments.SweepFull, seed, hook)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				tr.spans["sched.run_s"] += time.Since(start).Seconds()
				for _, t := range tr.tracers {
					tr.spans["core.execute_s"] += t.span()
				}
			}
			counts, err := artefactCounts(id, files)
			if err != nil {
				return nil, err
			}
			return &sample{files: files, digest: digestFiles(files), counts: counts}, nil
		}
		return p, nil
	}
}

// regenerate runs one artefact job cold and returns its files.
func regenerate(id string, sweep experiments.Sweep, seed uint64, hook func(np int) mpi.Tracer) (map[string][]byte, error) {
	jobs, err := experiments.JobsTraced(sweep, seed, fault.Params{}, []string{id}, hook)
	if err != nil {
		return nil, err
	}
	results, err := sched.Run(jobs, sched.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	if r := results[0]; r.Status != sched.Done {
		return nil, fmt.Errorf("%s: job %s", id, r.Status)
	}
	return results[0].Files, nil
}

// artefactCounts reads the exact work counts of one regeneration: the
// mpi counters of its manifest and, for the facility, the events column.
func artefactCounts(id string, files map[string][]byte) (map[string]int64, error) {
	m, err := obs.DecodeManifest(files[id+".manifest.json"])
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for from, to := range manifestCounters {
		counts[to] = m.Metrics[from].Value
	}
	if id == "fac2" {
		ev, err := csvColumnSum(files["fac2_e15_facility_scale.csv"], "events")
		if err != nil {
			return nil, err
		}
		counts["facility.events"] = ev
	}
	return counts, nil
}
