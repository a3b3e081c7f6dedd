package facility

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// WorkloadSpec parameterises the synthetic workload generator. The
// generated stream is a pure function of the spec — same spec, same
// jobs, byte for byte.
type WorkloadSpec struct {
	Seed    uint64
	Jobs    int
	Tenants int
	// Slots is the reference HPC capacity the arrival rate is sized
	// against (normally Config.Slots[PoolHPC]).
	Slots int
	// Utilization is the offered load relative to Slots used to derive
	// the arrival horizon (0 = 1.05: a mildly saturated facility, the
	// regime where queue policy actually matters).
	Utilization float64
	// Horizon, when positive, fixes the arrival window in virtual
	// seconds instead of deriving it from Utilization.
	Horizon float64
	// MaxNP caps per-job slot requests (0 = min(64, Slots)).
	MaxNP int
	// Classes is the workload-class universe (nil = CalibratedClasses();
	// explicit lists draw uniformly instead of by the built-in mix).
	Classes []string
}

// Validate rejects malformed specs.
func (s WorkloadSpec) Validate() error {
	if s.Jobs <= 0 || s.Tenants <= 0 || s.Slots <= 0 {
		return fmt.Errorf("facility: workload needs positive Jobs (%d), Tenants (%d), Slots (%d)",
			s.Jobs, s.Tenants, s.Slots)
	}
	if s.Utilization < 0 || s.Horizon < 0 {
		return fmt.Errorf("facility: negative Utilization (%g) or Horizon (%g)", s.Utilization, s.Horizon)
	}
	if s.MaxNP < 0 || s.MaxNP > s.Slots {
		return fmt.Errorf("facility: MaxNP %d outside [0, %d]", s.MaxNP, s.Slots)
	}
	for _, c := range s.Classes {
		if c == "" {
			return fmt.Errorf("facility: empty workload class")
		}
	}
	return nil
}

// classShape holds one workload class's generation parameters, loosely
// calibrated to the paper's codes: NPB kernels are short and wide-ish,
// MetUM is the long production climate job.
type classShape struct {
	weight   float64
	logMean  float64 // LogNormal mu of the reference runtime
	logSigma float64
	npMin    int // np = npMin << k, k uniform in [0, npExp]
	npExp    int
}

func shapeOf(class string) classShape {
	switch class {
	case "ep":
		return classShape{0.30, math.Log(120), 0.8, 1, 5}
	case "cg":
		return classShape{0.20, math.Log(240), 0.7, 1, 5}
	case "mg":
		return classShape{0.15, math.Log(180), 0.7, 1, 5}
	case "ft":
		return classShape{0.10, math.Log(300), 0.6, 1, 5}
	case "is":
		return classShape{0.10, math.Log(60), 0.5, 1, 5}
	case "metum":
		return classShape{0.15, math.Log(1800), 0.5, 8, 3}
	}
	return classShape{0.10, math.Log(300), 0.8, 1, 5}
}

// Generate produces the seeded synthetic job stream: Zipf-weighted
// tenant activity (a few heavy groups, a long tail), Poisson arrivals
// scaled so the offered load hits the spec's utilization target,
// per-class LogNormal runtimes and power-of-two slot requests, and
// occasional underestimated wall limits (the jobs that get killed).
// Jobs are returned in arrival order.
func Generate(spec WorkloadSpec) ([]Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	maxNP := spec.MaxNP
	if maxNP == 0 {
		maxNP = 64
		if spec.Slots < maxNP {
			maxNP = spec.Slots
		}
	}
	classes := spec.Classes
	uniform := classes != nil
	if classes == nil {
		classes = CalibratedClasses()
	}

	root := sim.NewRNG(spec.Seed).Derive(sim.SeedString("facility-workload"))
	tenantR := root.Derive(1)
	classR := root.Derive(2)
	sizeR := root.Derive(3)
	runR := root.Derive(4)
	limitR := root.Derive(5)
	arrR := root.Derive(6)

	// Zipf(0.8) tenant activity, cumulative for binary-search sampling.
	tenantCum := make([]float64, spec.Tenants)
	total := 0.0
	for i := range tenantCum {
		total += 1 / math.Pow(float64(i+1), 0.8)
		tenantCum[i] = total
	}
	classCum := make([]float64, len(classes))
	classTotal := 0.0
	for i, c := range classes {
		w := shapeOf(c).weight
		if uniform {
			w = 1
		}
		classTotal += w
		classCum[i] = classTotal
	}

	// Tenant names are formatted on a tenant's first job and shared by
	// the rest of its jobs.
	names := make([]string, spec.Tenants)
	jobs := make([]Job, spec.Jobs)
	var demand, at float64
	for i := range jobs {
		at += arrR.Exponential(1)
		tenant := sort.SearchFloat64s(tenantCum, tenantR.Float64()*total)
		class := classes[sort.SearchFloat64s(classCum, classR.Float64()*classTotal)]
		sh := shapeOf(class)

		np := sh.npMin << sizeR.Intn(sh.npExp+1)
		if np > maxNP {
			np = maxNP
		}
		rt := runR.LogNormal(sh.logMean, sh.logSigma)
		if rt < 5 {
			rt = 5
		}
		if rt > 6*3600 {
			rt = 6 * 3600
		}
		// ~5% of users underestimate their wall limit and get killed on
		// the HPC partition; everyone else pads it 1.1-3x.
		lim := rt * (1.1 + 1.9*limitR.Float64())
		if limitR.Float64() < 0.05 {
			lim = rt * (0.5 + 0.45*limitR.Float64())
		}

		if names[tenant] == "" {
			names[tenant] = fmt.Sprintf("t%04d", tenant)
		}
		jobs[i] = Job{
			Tenant:  names[tenant],
			Class:   class,
			NP:      np,
			Runtime: rt,
			Limit:   lim,
			Submit:  at,
		}
		demand += float64(np) * rt
	}

	horizon := spec.Horizon
	if horizon == 0 {
		util := spec.Utilization
		if util == 0 {
			util = 1.05
		}
		horizon = demand / (util * float64(spec.Slots))
	}
	// Rescale the unit-rate arrival process onto the horizon;
	// multiplication preserves order, so arrival order is unchanged.
	scale := horizon / at
	for i := range jobs {
		jobs[i].Submit *= scale
	}
	return jobs, nil
}

// FormatTrace renders jobs in the facility trace format: one job per
// line, "tenant class np runtime limit submit", floats exact (round-trip
// through ParseTrace is identity).
func FormatTrace(jobs []Job) []byte {
	var buf bytes.Buffer
	buf.WriteString("# facility trace: tenant class np runtime limit submit\n")
	for _, j := range jobs {
		fmt.Fprintf(&buf, "%s %s %d %s %s %s\n", j.Tenant, j.Class, j.NP,
			ftoa(j.Runtime), ftoa(j.Limit), ftoa(j.Submit))
	}
	return buf.Bytes()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseTrace parses the trace format emitted by FormatTrace (replay
// mode): blank lines and #-comments are skipped; jobs keep file order.
func ParseTrace(data []byte) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 6 {
			return nil, fmt.Errorf("facility: trace line %d: want 6 fields, got %d", line, len(f))
		}
		np, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("facility: trace line %d: np: %w", line, err)
		}
		var vals [3]float64
		for i, s := range f[3:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("facility: trace line %d: field %d: %w", line, i+4, err)
			}
			vals[i] = v
		}
		jobs = append(jobs, Job{
			Tenant: f[0], Class: f[1], NP: np,
			Runtime: vals[0], Limit: vals[1], Submit: vals[2],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("facility: trace: %w", err)
	}
	return jobs, nil
}
