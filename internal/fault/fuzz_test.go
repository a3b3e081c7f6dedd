package fault_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/apps/metum"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// tinyConfig is a miniature MetUM run (np=4 decomposes it 2x2): large
// enough to exercise halo exchange, collectives and checkpointing, small
// enough for thousands of fuzz executions.
func tinyConfig(ckptEvery int) metum.Config {
	return metum.Config{
		NX: 64, NY: 33, NZ: 4,
		Steps: 6, Warmup: 1,
		DumpBytes:          8 << 20,
		HaloSwapsPerStep:   4,
		HaloWidth:          1,
		FieldsPerSwap:      1,
		SolverItersPerStep: 4,
		FlopsPerStep:       2e9,
		BytesPerStep:       4e9,
		ImbalanceAmp:       0.3,
		MemTotal:           1 << 30,
		MemPerRankFixed:    1 << 20,
		CheckpointEvery:    ckptEvery,
		CheckpointBytes:    4 << 20,
	}
}

type fuzzRun struct {
	time   float64
	lost   float64
	resume int
	err    string
}

func resilientTinyRun(t *testing.T, plan *fault.Plan, ckptEvery int) fuzzRun {
	t.Helper()
	p := platform.DCC()
	pl, err := cluster.Place(p, cluster.Spec{NP: 4, Policy: cluster.Spread, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(p, pl, mpi.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(ckptEvery)
	res, stats, err := w.RunResilient(mpi.ResilientConfig{Plan: plan, MaxRestarts: 8},
		func(c *mpi.Comm) error {
			_, err := metum.Run(c, cfg)
			return err
		})
	if err != nil {
		// The only acceptable failure is exhausting the restart budget.
		if !errors.Is(err, mpi.ErrRankFailed) {
			t.Fatalf("unexpected error class: %v", err)
		}
		return fuzzRun{err: err.Error(), lost: stats.LostWork}
	}
	if stats.LostWork < 0 || stats.RestartOverhead < 0 {
		t.Fatalf("negative resilience accounting: %+v", stats)
	}
	if stats.LostWork+stats.RestartOverhead >= res.Time && stats.Restarts > 0 {
		t.Fatalf("overheads exceed wall time: %+v vs %g", stats, res.Time)
	}
	return fuzzRun{time: res.Time, lost: stats.LostWork, resume: stats.Restarts}
}

// FuzzFaultPlan: any generated plan yields a terminating resilient run,
// and the run is a pure function of the plan — executing it twice gives
// identical times, accounting and error outcomes.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), float64(0), float64(0), float64(0), uint8(0))
	f.Add(uint64(2), float64(20), float64(0), float64(0), uint8(2)) // fault storm
	f.Add(uint64(3), float64(400), float64(60), float64(0), uint8(3))
	f.Add(uint64(4), float64(0), float64(120), float64(90), uint8(1)) // slow but alive
	f.Add(uint64(5), float64(90), float64(30), float64(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, mtbf, straggle, degrade float64, ckpt uint8) {
		// Sanitise into the spec's domain; the generator's own validation
		// is exercised separately.
		if mtbf < 0 {
			mtbf = -mtbf
		}
		if math.IsNaN(mtbf) || math.IsInf(mtbf, 0) {
			mtbf = 0 // the spec rejects non-finite values
		}
		if mtbf > 0 && mtbf < 5 {
			mtbf = 5 // pathological storms time out the restart budget fast
		}
		if straggle < 0 {
			straggle = -straggle
		}
		if degrade < 0 {
			degrade = -degrade
		}
		spec := fault.Spec{
			MTBF:            mtbf,
			StragglerRate:   minf(straggle, 600),
			DegradationRate: minf(degrade, 600),
			Horizon:         600,
		}
		plan, err := fault.Generate(spec, "dcc", "fuzz", 4, 4, seed)
		if err != nil {
			t.Fatalf("sanitised spec rejected: %v", err)
		}
		a := resilientTinyRun(t, plan, int(ckpt%5))
		b := resilientTinyRun(t, plan, int(ckpt%5))
		if a != b {
			t.Fatalf("same plan, different outcomes:\n%+v\n%+v", a, b)
		}
		if a.err == "" && a.time <= 0 {
			t.Fatalf("completed run has non-positive wall time: %+v", a)
		}
	})
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// FuzzParseParams feeds arbitrary -faults strings to the flag parser.
// Any input may be rejected, but none may panic, and an accepted one
// must render to a canonical form that reparses to the same rendering —
// the property the artefact cache keys rely on.
func FuzzParseParams(f *testing.F) {
	for _, s := range []string{
		"",
		"mtbf=600,ckpt=2",
		"mtbf=900,straggle=6,degrade=12",
		"mtbf=600,straggle=6,slow=2.5,degrade=12,ckpt=3,seed=1",
		"mtbf=200,ckpt=2",
		"dlat=4,dbw=8,horizon=3600,degrade=1",
		"mtbf=,ckpt=-1",
		" seed = 7 , , mtbf=1e300 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := fault.ParseParams(s)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := fault.ParseParams(canon)
		if err != nil {
			t.Fatalf("%q parsed, but its canonical form %q does not: %v", s, canon, err)
		}
		if got := q.String(); got != canon {
			t.Fatalf("%q: canonical form %q reparses to %q", s, canon, got)
		}
	})
}
