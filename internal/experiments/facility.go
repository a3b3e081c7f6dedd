package experiments

import (
	"fmt"

	"repro/internal/facility"
	"repro/internal/report"
)

// This file extends the paper's evaluation with the batch-facility study
// (internal/facility): the same multi-tenant workload scheduled four ways
// — static HPC-only placement, ARRIVE-F brokered placement across the
// three platforms, and brokered placement under a spot market with and
// without checkpointing. The artefact is registered as "fac1" (table E14).

// facWorkload returns the E14 workload dimensions at each sweep.
func (x *Ctx) facWorkload() (jobs, tenants, hpcSlots int) {
	switch x.Sweep {
	case SweepSmoke:
		return 320, 48, 64
	case SweepQuick:
		return 3000, 350, 256
	}
	return 12000, 1200, 512
}

// facScenario is one E14 row: a facility configuration applied to the
// shared workload.
type facScenario struct {
	name   string
	broker bool
	spot   bool
	ckpt   bool
}

func facScenarios() []facScenario {
	return []facScenario{
		{name: "static"},
		{name: "broker", broker: true},
		{name: "broker+spot", broker: true, spot: true, ckpt: true},
		{name: "broker+spot-nockpt", broker: true, spot: true},
	}
}

// facRun executes one scenario over the shared workload and broker.
func (x *Ctx) facRun(sc facScenario, jobs []facility.Job, broker *facility.Broker,
	hpcSlots int) (*facility.Result, error) {
	cfg := facility.Config{
		Slots:     [facility.NumPools]int{hpcSlots, hpcSlots / 2, hpcSlots / 2},
		Backfill:  true,
		Fairshare: true,
		Prices:    [facility.NumPools]float64{0, 0.34, 0.68},
		Meter:     x.Meter,
		Metrics:   x.Metrics,
	}
	if sc.broker {
		cfg.Broker = broker
	}
	if sc.spot {
		spot, err := facility.MarketSpot(x.Seed, 0.60, 24*28, 1<<28)
		if err != nil {
			return nil, err
		}
		if !sc.ckpt {
			spot.CheckpointInterval = 0
		}
		cfg.Spot = spot
	}
	f, err := facility.New(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run(jobs)
}

// TableE14Facility produces the E14 artefact: queue-wait and
// bounded-slowdown distributions, cloud offload share, interruption
// accounting and cost-to-solution for each scheduling scenario, plus the
// per-job win rate of brokered placement over the static baseline. The
// broker is calibrated from real reference runs under the Ctx's engine
// (facility.CalibrateBroker); runtime parity of those runs is what keeps
// this table bit-identical across engines.
func (x *Ctx) TableE14Facility() (*report.Table, error) {
	nJobs, tenants, hpcSlots := x.facWorkload()
	jobs, err := facility.Generate(facility.WorkloadSpec{
		Seed: x.Seed, Jobs: nJobs, Tenants: tenants, Slots: hpcSlots,
	})
	if err != nil {
		return nil, err
	}
	broker, err := facility.CalibrateBroker(facility.CalibrateOpts{
		Seed: x.Seed, Meter: x.Meter, Metrics: x.Metrics,
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: fmt.Sprintf("E14: multi-tenant facility, %d jobs / %d tenants / %d HPC slots (scenario x outcome)",
			nJobs, tenants, hpcSlots),
		Headers: []string{"scenario", "done", "killed", "cloud%",
			"wait p50", "wait p90", "wait p99", "bslow", "bslow p99",
			"intr", "lost(s)", "cost($)", "win% vs static"},
	}
	var static *facility.Result
	for _, sc := range facScenarios() {
		res, err := x.facRun(sc, jobs, broker, hpcSlots)
		if err != nil {
			return nil, fmt.Errorf("e14 scenario %s: %w", sc.name, err)
		}
		if static == nil {
			static = res
		}
		s := facility.Summarize(res.Outcomes, 0)
		t.AddRow(sc.name, s.Completed, s.Killed, 100*s.CloudShare,
			s.WaitP50, s.WaitP90, s.WaitP99, s.SlowMean, s.SlowP99,
			s.Interruptions, s.LostWork, s.Cost, facWinRate(static, res))
	}
	return t, nil
}

// facWinRate returns the percentage of jobs that waited strictly less in
// res than in the static baseline. Outcomes are in submission order in
// both runs, so index i is the same job.
func facWinRate(static, res *facility.Result) float64 {
	if static == res {
		return 0
	}
	wins := 0
	for i := range res.Outcomes {
		if res.Outcomes[i].Wait < static.Outcomes[i].Wait {
			wins++
		}
	}
	return 100 * float64(wins) / float64(len(res.Outcomes))
}

// TableE14Facility is the full-sweep compatibility wrapper.
func TableE14Facility() (*report.Table, error) { return (&Ctx{}).TableE14Facility() }
