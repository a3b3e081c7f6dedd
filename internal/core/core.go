// Package core is the public orchestration layer of the reproduction: it
// runs workloads on modelled platforms with placement control, IPM
// profiling and repetition (the paper repeats each run 5 times and takes
// the minimum), and provides the comparison helpers (speedups, normalised
// times, cross-platform ratios) used by every figure and table.
package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ipm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ModelVersion identifies the calibration generation of the platform,
// network, CPU and I/O models. It is part of every artefact cache key
// (package sched), so bumping it invalidates all previously cached
// results at once. Bump it whenever any modelled constant or algorithm
// changes in a way that can alter an artefact's bytes.
const ModelVersion = "v1"

// RunSpec describes one job placement.
type RunSpec struct {
	Platform *platform.Platform
	NP       int
	Nodes    int            // 0 = minimum for the policy
	Policy   cluster.Policy // Block unless overridden
	// MemPerRank, when set, makes placement fail if nodes lack memory and
	// is used by AutoNodes to find the smallest feasible node count.
	MemPerRank int64
	Seed       uint64        // jitter stream offset (repetition index)
	Timeout    time.Duration // real-time guard; 0 = mpi default
	// ExtraTracer, when set, observes events alongside the IPM profiler
	// (e.g. a trace.Recorder exporting a Chrome timeline).
	ExtraTracer mpi.Tracer
	// Meter, when set, accumulates the virtual wall time of every run
	// executed under this spec (scheduler jobs use it for per-job
	// virtual-time accounting).
	Meter *sim.Meter
	// Metrics, when set, receives the mpi runtime's counters (sends,
	// payload bytes, wait states, pool traffic, fault/IO accounting).
	Metrics *obs.Registry
	// Faults, when set, injects the fault plan into the world. Without
	// Resilient, a preemption fails the run with mpi.ErrRankFailed.
	Faults *fault.Plan
	// Resilient runs the job under checkpoint/restart (mpi.RunResilient):
	// a preempted world restarts from the application's last durable
	// Checkpoint. With a nil/empty Faults plan the run is bit-identical
	// to a plain Execute.
	Resilient bool
	// RestartDelay and MaxRestarts tune the resilient loop (0 = defaults).
	RestartDelay float64
	MaxRestarts  int
}

// Outcome bundles the run result with its profile.
type Outcome struct {
	Result  *mpi.Result
	Profile *ipm.Profile
	// Resilience is set for Resilient runs (nil otherwise).
	Resilience *mpi.ResilientStats
}

// Time returns the job's virtual wall time.
func (o *Outcome) Time() float64 { return o.Result.Time }

// AutoNodes resolves the node count for the spec: the explicit Nodes if
// set, otherwise the smallest count that satisfies slots and memory.
func AutoNodes(spec RunSpec) (int, error) {
	if spec.Nodes > 0 {
		return spec.Nodes, nil
	}
	if spec.MemPerRank > 0 {
		return cluster.MinNodesFor(spec.Platform, spec.NP, spec.MemPerRank)
	}
	return 0, nil // let Place use its slot-based minimum
}

// Execute runs fn on the spec's placement with a profiler attached.
func Execute(spec RunSpec, fn func(c *mpi.Comm) error) (*Outcome, error) {
	if spec.Platform == nil {
		return nil, fmt.Errorf("core: spec needs a platform")
	}
	nodes, err := AutoNodes(spec)
	if err != nil {
		return nil, err
	}
	policy := spec.Policy
	if nodes > 0 && policy == cluster.Block {
		// An explicit or memory-driven node count distributes evenly.
		policy = cluster.Spread
	}
	pl, err := cluster.Place(spec.Platform, cluster.Spec{
		NP: spec.NP, Policy: policy, Nodes: nodes, MemPerRank: spec.MemPerRank,
	})
	if err != nil {
		return nil, err
	}
	prof := ipm.New(spec.NP)
	var tracer mpi.Tracer = prof
	if spec.ExtraTracer != nil {
		tracer = mpi.Tee(prof, spec.ExtraTracer)
	}
	opts := []mpi.Option{mpi.WithTracer(tracer), mpi.WithSeed(spec.Seed)}
	if spec.Timeout > 0 {
		opts = append(opts, mpi.WithTimeout(spec.Timeout))
	}
	if spec.Faults != nil {
		opts = append(opts, mpi.WithFaults(spec.Faults))
	}
	if spec.Metrics != nil {
		opts = append(opts, mpi.WithMetrics(spec.Metrics))
	}
	w, err := mpi.NewWorld(spec.Platform, pl, opts...)
	if err != nil {
		return nil, err
	}
	if spec.Resilient {
		return executeResilient(spec, w, fn)
	}
	res, err := w.Run(fn)
	if err != nil {
		return nil, err
	}
	w.Release()
	spec.Meter.Add(res.Time)
	return &Outcome{Result: res, Profile: prof.Snapshot(res)}, nil
}

// executeResilient runs the world under checkpoint/restart. Each
// incarnation gets a fresh profiler so the surviving profile accounts
// only the completing attempt; lost work and restart overhead are folded
// in as the profiler's resilience columns.
func executeResilient(spec RunSpec, w *mpi.World, fn func(c *mpi.Comm) error) (*Outcome, error) {
	var prof *ipm.Profiler
	cfg := mpi.ResilientConfig{
		Plan:         spec.Faults,
		RestartDelay: spec.RestartDelay,
		MaxRestarts:  spec.MaxRestarts,
		NewTracer: func(incarnation int) mpi.Tracer {
			prof = ipm.New(spec.NP)
			if spec.ExtraTracer != nil {
				return mpi.Tee(prof, spec.ExtraTracer)
			}
			return prof
		},
	}
	res, stats, err := w.RunResilient(cfg, fn)
	if err != nil {
		return nil, err
	}
	w.Release()
	spec.Meter.Add(res.Time)
	pr := prof.Snapshot(res)
	pr.SetResilience(stats.Restarts, stats.Checkpoints, stats.LostWork, stats.RestartOverhead)
	return &Outcome{Result: res, Profile: pr, Resilience: stats}, nil
}

// Best runs the spec `reps` times with distinct seeds and returns the
// outcome with the minimum wall time — the paper's measurement protocol
// ("each run was repeated 5 times, with the minimum time being used").
func Best(spec RunSpec, reps int, fn func(c *mpi.Comm) error) (*Outcome, error) {
	if reps < 1 {
		reps = 1
	}
	var best *Outcome
	for r := 0; r < reps; r++ {
		s := spec
		s.Seed = spec.Seed + uint64(r)*0x9e3779b9
		out, err := Execute(s, fn)
		if err != nil {
			return nil, fmt.Errorf("core: repetition %d: %w", r, err)
		}
		if best == nil || out.Time() < best.Time() {
			best = out
		}
	}
	return best, nil
}

// Speedup converts a time series indexed by process count into speedups
// relative to the time at baseNP. Missing baseNP returns an error.
func Speedup(times map[int]float64, baseNP int) (map[int]float64, error) {
	base, ok := times[baseNP]
	if !ok || base <= 0 {
		return nil, fmt.Errorf("core: no valid base time at np=%d", baseNP)
	}
	out := make(map[int]float64, len(times))
	for np, t := range times {
		if t > 0 {
			out[np] = base / t
		}
	}
	return out, nil
}

// Normalise divides each platform's value by the reference platform's
// (Figure 3 normalises to DCC).
func Normalise(values map[string]float64, reference string) (map[string]float64, error) {
	ref, ok := values[reference]
	if !ok || ref <= 0 {
		return nil, fmt.Errorf("core: no valid reference value for %q", reference)
	}
	out := make(map[string]float64, len(values))
	for k, v := range values {
		out[k] = v / ref
	}
	return out, nil
}
