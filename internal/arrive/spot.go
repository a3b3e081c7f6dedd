package arrive

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Spot-market support: the paper's Section VI closes with "we plan to
// integrate Amazon EC2 spot-pricing into our local ANUPBS scheduler, to
// avail of price competitive compute resources". This file holds the
// market half of that step: a deterministic spot-price process
// (mean-reverting around a fraction of the on-demand price, with demand
// spikes) and its conversion, against a bid, into fault-plane outage
// windows. Running jobs on that market — interruptions, checkpoint
// rollback, billing — is the batch facility's job (facility.MarketSpot).

// SpotMarket generates a deterministic hourly price path for one instance
// type.
type SpotMarket struct {
	OnDemand float64 // $ per node-hour (cc1.4xlarge was $1.60 in 2011)
	Mean     float64 // long-run spot mean, $/node-hour
	Floor    float64
	Sigma    float64 // hourly volatility, $
	SpikeP   float64 // probability of a demand spike in any hour
	SpikeMul float64 // spike price multiplier over on-demand

	seed uint64
}

// NewSpotMarket returns the 2011-era cc1.4xlarge market model: spot
// hovering around 35% of on-demand with occasional spikes above it.
func NewSpotMarket(seed uint64) *SpotMarket {
	return &SpotMarket{
		OnDemand: 1.60,
		Mean:     0.56,
		Floor:    0.30,
		Sigma:    0.08,
		SpikeP:   0.02,
		SpikeMul: 1.5,
		seed:     seed,
	}
}

// Price returns the spot price during hour h (deterministic in seed and
// h: the whole path up to h is replayed).
func (m *SpotMarket) Price(h int) float64 {
	if h < 0 {
		h = 0
	}
	rng := sim.NewRNG(m.seed).Derive(0x5907)
	p := m.Mean
	for i := 0; i <= h; i++ {
		// Mean reversion plus noise.
		p += 0.3*(m.Mean-p) + m.Sigma*rng.Normal()
		if rng.Float64() < m.SpikeP {
			p = m.OnDemand * m.SpikeMul * (1 + 0.3*rng.Float64())
		}
		if p < m.Floor {
			p = m.Floor
		}
	}
	return p
}

// InterruptionPlan converts the price path against a bid into the fault
// plane's terms: one outage window per contiguous span of outbid hours,
// opening with a preemption of node 0 at the outage's first hour. Times
// are in hours. The MPI runtime and the facility's spot pool both
// consume this representation, so the spot example and the simulated
// runtime can never disagree about when capacity was lost.
func (m *SpotMarket) InterruptionPlan(bid, maxHours float64) (*fault.Plan, error) {
	if bid <= 0 {
		return nil, fmt.Errorf("arrive: bid must be positive")
	}
	if maxHours < 0 {
		return nil, fmt.Errorf("arrive: maxHours must be non-negative")
	}
	if maxHours == 0 {
		maxHours = 24 * 14
	}
	p := &fault.Plan{}
	out := false
	for h := 0; float64(h) < maxHours; h++ {
		if m.Price(h) > bid {
			if !out {
				out = true
				p.Preemptions = append(p.Preemptions, fault.Preemption{Node: 0, At: float64(h)})
				p.Outages = append(p.Outages, fault.Outage{Start: float64(h), End: float64(h) + 1})
			} else {
				p.Outages[len(p.Outages)-1].End = float64(h) + 1
			}
		} else {
			out = false
		}
	}
	return p, nil
}
