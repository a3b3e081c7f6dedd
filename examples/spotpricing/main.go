// Spot pricing: the paper's closing future-work item implemented —
// "integrate Amazon EC2 spot-pricing into our local ANUPBS scheduler, to
// avail of price competitive compute resources". Run a week-long MetUM
// campaign on EC2 spot instances with different bidding strategies and
// compare cost and completion against on-demand.
//
// Each strategy runs the campaign as one job on the EC2 spot pool of a
// batch facility (facility.MarketSpot): the bid decides when the market's
// price path interrupts the job, and interruptions roll it back to its
// last checkpoint. Billing follows the facility's model — the market's
// long-run mean spot price per billed slot-hour, one slot per node — the
// same model the fac1/fac2 artefacts use, so the bid changes how long a
// run takes and how much work it loses, not the hourly rate.
//
//	go run ./examples/spotpricing
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/metum"
	"repro/internal/arrive"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/report"
)

func main() {
	// 1. How long does one MetUM run take on EC2-4 (32 ranks, 4 nodes)?
	cfg := metum.Default()
	var stats *metum.Stats
	_, err := core.Execute(core.RunSpec{
		Platform: platform.EC2(), NP: 32, Nodes: 4, MemPerRank: cfg.MemPerRank(32),
	}, func(c *mpi.Comm) error {
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
		log.Fatal(err)
	}
	// A production campaign: 200 forecast cycles.
	const cycles = 200
	jobHours := stats.Total / 3600 * cycles
	const nodes = 4
	fmt.Printf("one MetUM run on ec2-4: %.0f s; campaign of %d cycles = %.1f node-hours x %d nodes\n\n",
		stats.Total, cycles, jobHours, nodes)

	// 2. Sweep bidding strategies on the spot market. Each run is one
	// 4-slot job on a facility whose own partition is too narrow for it,
	// so the broker places it on the EC2 spot pool.
	market := arrive.NewSpotMarket(2012)
	const horizon = 24 * 14 // the market's two-week price path, hours
	const ckBytes = 1 << 28 // per-node checkpoint image
	onDemand := jobHours * nodes * market.OnDemand
	runSpot := func(bid float64, ckpt bool) facility.Outcome {
		spot, err := facility.MarketSpot(2012, bid, horizon, ckBytes)
		if err != nil {
			log.Fatal(err)
		}
		if !ckpt {
			spot.CheckpointInterval = 0
		}
		f, err := facility.New(facility.Config{
			Slots:  [facility.NumPools]int{facility.PoolHPC: 1, facility.PoolEC2: nodes},
			Broker: &facility.Broker{},
			Spot:   spot,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := f.Run([]facility.Job{{Tenant: "metum", Class: "metum", NP: nodes, Runtime: jobHours * 3600}})
		if err != nil {
			log.Fatal(err)
		}
		return res.Outcomes[0]
	}
	done := func(o facility.Outcome) bool { return o.End <= horizon*3600 }

	table := &report.Table{
		Title: "MetUM campaign on EC2 spot (on-demand $1.60/node-hr)",
		Headers: []string{"strategy", "bid $", "in 2wk", "interrupts",
			"wall (h)", "cost $", "on-demand $", "savings"},
	}
	strategies := []struct {
		name string
		bid  float64
		ckpt bool
	}{
		{"floor bid, ckpt 1h", market.Floor + 0.02, true},
		{"mean bid, ckpt 1h", market.Mean, true},
		{"mean bid, no ckpt", market.Mean, false},
		{"on-demand bid, ckpt 1h", market.OnDemand, true},
		{"above spikes, ckpt 1h", market.OnDemand * 1.6, true},
	}
	for _, s := range strategies {
		o := runSpot(s.bid, s.ckpt)
		table.AddRow(s.name, s.bid, fmt.Sprintf("%v", done(o)), o.Interruptions,
			o.End/3600, o.Cost, onDemand,
			fmt.Sprintf("%.0f%%", (1-o.Cost/onDemand)*100))
	}
	fmt.Print(table.Render())

	// 3. Let the scheduler pick: the cheapest checkpointed bid between
	// the market floor and on-demand whose campaign finishes within the
	// two-week horizon.
	bestBid, found := 0.0, false
	var best facility.Outcome
	for i := 0; ; i++ {
		bid := market.Floor + 0.05*float64(i)
		if bid > market.OnDemand*1.05 {
			break
		}
		if o := runSpot(bid, true); done(o) && (!found || o.Cost < best.Cost) {
			bestBid, best, found = bid, o, true
		}
	}
	if !found {
		log.Fatal("no bid completes the campaign within two weeks")
	}
	fmt.Printf("\nscheduler-selected bid: $%.2f -> cost $%.0f (%.0f%% below on-demand), %d interruptions\n",
		bestBid, best.Cost, (1-best.Cost/onDemand)*100, best.Interruptions)
}
