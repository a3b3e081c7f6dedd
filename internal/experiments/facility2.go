package experiments

import (
	"fmt"

	"repro/internal/facility"
	"repro/internal/report"
)

// This file is the batch-facility scale study (artefact "fac2", table
// E15): the fully-featured facility — EASY backfill, decayed-usage
// fairshare, calibrated ARRIVE-F broker, checkpointed spot market —
// driven up a workload ladder that ends at a million jobs from a
// hundred thousand tenants. Each rung runs through RunStream with
// reservoir statistics, so memory stays bounded by the in-flight job
// set and the rung's cost is dominated by the event loop the
// incremental scheduler keeps near O(log n) per event. The per-rung
// stream digest pins the entire outcome stream bit-for-bit.

// fac2Rung is one scale-ladder rung of the E15 streaming study.
type fac2Rung struct {
	jobs, tenants, hpcSlots int
}

// fac2Ladder returns the E15 workload ladder at each sweep. The full
// sweep's top rung is the million-job acceptance run.
func (x *Ctx) fac2Ladder() []fac2Rung {
	switch x.Sweep {
	case SweepSmoke:
		return []fac2Rung{{800, 80, 128}, {1600, 160, 128}}
	case SweepQuick:
		return []fac2Rung{{10000, 1000, 512}, {40000, 4000, 512}}
	}
	return []fac2Rung{
		{10000, 1000, 1024},
		{100000, 10000, 1024},
		{1000000, 100000, 1024},
	}
}

// TableE15FacilityScale produces the E15 artefact: outcome statistics
// at each rung of the scale ladder under the brokered, spot-backed
// configuration. Counters (events, killed, cloud share, cost) are
// exact; wait and slowdown percentiles come from the seeded reservoir,
// so every cell — including the truncated stream digest — is a
// deterministic function of the seed.
func (x *Ctx) TableE15FacilityScale() (*report.Table, error) {
	broker, err := facility.CalibrateBroker(facility.CalibrateOpts{
		Seed: x.Seed, Meter: x.Meter, Metrics: x.Metrics,
	})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "E15: facility scale ladder, streaming statistics (broker+spot, incremental scheduler)",
		Headers: []string{"jobs", "tenants", "slots", "events", "makespan(s)",
			"wait p50", "wait p90", "wait p99", "bslow p99", "killed",
			"cloud%", "cost($)", "digest"},
	}
	for _, r := range x.fac2Ladder() {
		jobs, err := facility.Generate(facility.WorkloadSpec{
			Seed: x.Seed, Jobs: r.jobs, Tenants: r.tenants, Slots: r.hpcSlots,
		})
		if err != nil {
			return nil, err
		}
		spot, err := facility.MarketSpot(x.Seed, 0.60, 24*28, 1<<28)
		if err != nil {
			return nil, err
		}
		cfg := facility.Config{
			Slots:     [facility.NumPools]int{r.hpcSlots, r.hpcSlots / 2, r.hpcSlots / 2},
			Backfill:  true,
			Fairshare: true,
			Broker:    broker,
			Spot:      spot,
			Prices:    [facility.NumPools]float64{0, 0.34, 0.68},
			Meter:     x.Meter,
			Metrics:   x.Metrics,
		}
		f, err := facility.New(cfg)
		if err != nil {
			return nil, err
		}
		ss := facility.NewStreamSummary(0, x.Seed)
		sd := facility.NewStreamDigest()
		sr, err := f.RunStream(jobs, func(o facility.Outcome) {
			ss.Observe(o)
			sd.Observe(o)
		})
		if err != nil {
			return nil, fmt.Errorf("e15 rung %d jobs: %w", r.jobs, err)
		}
		s := ss.Summary()
		if s.Completed+s.Killed != r.jobs {
			return nil, fmt.Errorf("e15 rung %d jobs: conservation: %d+%d",
				r.jobs, s.Completed, s.Killed)
		}
		t.AddRow(r.jobs, r.tenants, r.hpcSlots, sr.Events, s.Makespan,
			s.WaitP50, s.WaitP90, s.WaitP99, s.SlowP99, s.Killed,
			100*s.CloudShare, s.Cost, sd.Sum(sr.Clock, sr.Events)[:12])
	}
	return t, nil
}
