package facility

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps/metum"
	"repro/internal/arrive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Broker is the facility's ARRIVE-F-style placement engine: each
// arriving job is routed to the pool minimising estimated queue wait
// plus projected runtime (and, weighted, dollar cost), using per-class
// runtime factors calibrated from profiled reference runs. A Broker is
// read-only after construction and safe to share across facilities.
type Broker struct {
	// Factors maps a workload class to its projected runtime multiplier
	// on each pool, relative to the HPC reference (Factors[*][PoolHPC]
	// is conventionally 1). Zero entries fall back to DefaultFactors.
	Factors map[string][NumPools]float64
	// DefaultFactors covers classes missing from Factors (zero entries
	// mean "no slowdown": factor 1).
	DefaultFactors [NumPools]float64

	// MaxSlowdown is ARRIVE-F's candidate filter: a job whose projected
	// factor on a cloud pool exceeds it is never offloaded there
	// (0 = 3; the related work's "minimal communications and I/O make
	// the best fit for cloud deployment" threshold family).
	MaxSlowdown float64
	// CostWeight converts dollars to seconds when scoring pools
	// (score += CostWeight * projected $). 0 ranks by time alone.
	CostWeight float64
}

// Validate rejects malformed brokers.
func (b *Broker) Validate() error {
	if b.MaxSlowdown < 0 || b.CostWeight < 0 {
		return fmt.Errorf("facility: broker knobs must be non-negative")
	}
	classes := make([]string, 0, len(b.Factors))
	for c := range b.Factors {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		for p, v := range b.Factors[c] {
			if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("facility: class %s factor %g on %s invalid", c, v, Pool(p))
			}
		}
	}
	for p, v := range b.DefaultFactors {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("facility: default factor %g on %s invalid", v, Pool(p))
		}
	}
	return nil
}

func (b *Broker) maxSlowdown() float64 {
	if b.MaxSlowdown == 0 {
		return 3
	}
	return b.MaxSlowdown
}

// factors resolves the class's projected runtime multiplier on every
// pool with one Factors lookup: exactly 1 on the HPC reference, else
// the class's positive factor, the positive default, or 1.
func (b *Broker) factors(class string) [NumPools]float64 {
	fs, ok := b.Factors[class]
	if !ok {
		fs = b.DefaultFactors
	}
	out := [NumPools]float64{PoolHPC: 1}
	for p := PoolHPC + 1; p < NumPools; p++ {
		switch {
		case fs[p] > 0:
			out[p] = fs[p]
		case b.DefaultFactors[p] > 0:
			out[p] = b.DefaultFactors[p]
		default:
			out[p] = 1
		}
	}
	return out
}

// classTable interns a facility's job classes: each distinct class is
// resolved through Broker.factors once, on first sight, into a dense
// table of factors. The first classScan classes are found by string
// comparison, which a generated workload's shared class strings mostly
// settle by pointer; any later ones go through a map, so the per-job
// cost stays bounded however many classes a trace names (an SWF trace
// names one per application).
type classTable struct {
	scan    []string // the first classScan classes, in first-sight order
	index   map[string]int32
	factors [][NumPools]float64
}

// classScan bounds the classes classTable finds by scanning.
const classScan = 8

// lookup returns class's resolved factors under broker b.
func (t *classTable) lookup(b *Broker, class string) [NumPools]float64 {
	for i, c := range t.scan {
		if c == class {
			return t.factors[i]
		}
	}
	if i, ok := t.index[class]; ok {
		return t.factors[i]
	}
	fs := b.factors(class)
	if t.factors == nil {
		t.scan = make([]string, 0, classScan)
		t.factors = make([][NumPools]float64, 0, classScan)
	}
	if len(t.scan) < classScan {
		t.scan = append(t.scan, class)
	} else {
		if t.index == nil {
			t.index = make(map[string]int32)
		}
		t.index[class] = int32(len(t.factors))
	}
	t.factors = append(t.factors, fs)
	return fs
}

// route scores each feasible pool as estimated-queue-wait + projected
// runtime + CostWeight·dollars and returns the minimum; ties keep the
// lowest pool id, so static HPC placement is the deterministic default.
// If the slowdown filter rejects every pool that could physically hold
// the job, the filter is waived — a job must always land somewhere.
func (b *Broker) route(rec *jobRec, f *Facility) Pool {
	if p, ok := b.pick(rec, f, true); ok {
		return p
	}
	if p, ok := b.pick(rec, f, false); ok {
		return p
	}
	return PoolHPC // unreachable for validated jobs
}

func (b *Broker) pick(rec *jobRec, f *Facility, filter bool) (Pool, bool) {
	j := &rec.job
	best := PoolHPC
	bestScore := math.Inf(1)
	found := false
	for p := PoolHPC; p < NumPools; p++ {
		ps := f.pools[p]
		if ps.slots < j.NP {
			continue
		}
		fac := rec.factors[p]
		if filter && p != PoolHPC && fac > b.maxSlowdown() {
			continue
		}
		run := j.Runtime * fac
		price := f.cfg.Prices[p]
		if p == PoolEC2 && f.cfg.Spot != nil {
			price = f.cfg.Spot.Price
		}
		score := f.estWait(ps) + run + b.CostWeight*float64(j.NP)*run/3600*price
		if score < bestScore {
			best, bestScore, found = p, score, true
		}
	}
	return best, found
}

// CalibrateOpts parameterises broker calibration runs.
type CalibrateOpts struct {
	// NP is the profiling rank count (0 = 4).
	NP int
	// Seed offsets the reference runs' random streams.
	Seed    uint64
	Meter   *sim.Meter
	Metrics *obs.Registry
}

func (o CalibrateOpts) np() int {
	if o.NP == 0 {
		return 4
	}
	return o.NP
}

// CalibratedClasses lists the workload classes CalibrateBroker profiles:
// the paper's NPB kernel set plus the MetUM climate pattern. The
// workload generator draws job classes from this list.
func CalibratedClasses() []string {
	return []string{"cg", "ep", "ft", "is", "mg", "metum"}
}

// CalibrateBroker builds a Broker the ARRIVE-F way: run each reference
// workload once on the simulated Vayu (a real core.Execute simulation —
// the facility's job-execution leg), extract its
// IPM profile, and project per-pool slowdown factors from first
// principles via arrive.WorkloadProfile.Slowdown.
func CalibrateBroker(opts CalibrateOpts) (*Broker, error) {
	b := &Broker{
		Factors: make(map[string][NumPools]float64, len(CalibratedClasses())),
		// Uncalibrated classes assume the paper's headline MetUM ratios:
		// mild private-cloud slowdown, ~2x on EC2.
		DefaultFactors: [NumPools]float64{1, 1.3, 2},
	}
	for _, class := range CalibratedClasses() {
		w, err := calibrationProfile(class, opts)
		if err != nil {
			return nil, fmt.Errorf("facility: calibrating %s: %w", class, err)
		}
		var fs [NumPools]float64
		fs[PoolHPC] = 1
		fs[PoolDCC] = clampFactor(w.Slowdown(platform.DCC()))
		fs[PoolEC2] = clampFactor(w.Slowdown(platform.EC2()))
		b.Factors[class] = fs
	}
	return b, b.Validate()
}

// clampFactor sanitises a projected slowdown: infeasible or degenerate
// projections fall back to 0 (= use the broker default), and factors
// below the reference are floored at 1 — the facility's HPC partition
// is by definition the reference machine.
func clampFactor(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
		return 0
	}
	if v < 1 {
		return 1
	}
	return v
}

// calibrationProfile runs one reference workload on Vayu and extracts
// its ARRIVE-F workload profile.
func calibrationProfile(class string, opts CalibrateOpts) (*arrive.WorkloadProfile, error) {
	np := opts.np()
	vayu := platform.Vayu()
	spec := core.RunSpec{
		Platform: vayu, NP: np, Seed: opts.Seed,
		Meter: opts.Meter, Metrics: opts.Metrics,
	}
	var body func(c *mpi.Comm) error
	if class == "metum" {
		cfg := metum.Default()
		cfg.Steps = 6
		cfg.HaloSwapsPerStep = 20
		cfg.SolverItersPerStep = 15
		body = func(c *mpi.Comm) error {
			_, err := metum.Run(c, cfg)
			return err
		}
	} else {
		fn, err := suite.Skeleton(class)
		if err != nil {
			return nil, err
		}
		body = func(c *mpi.Comm) error {
			return fn(c, npb.ClassA)
		}
	}
	out, err := core.Execute(spec, body)
	if err != nil {
		return nil, err
	}
	pl, err := cluster.Place(vayu, cluster.Spec{NP: np})
	if err != nil {
		return nil, err
	}
	return arrive.FromProfile(class, out.Profile, vayu, pl.MaxRanksPerNode()), nil
}
