package facility

import (
	"fmt"

	"repro/internal/arrive"
	"repro/internal/fault"
	"repro/internal/iomodel"
)

// SpotConfig makes the EC2 pool a spot-market pool: jobs there bill at
// the spot price but lose capacity during the plan's outage windows,
// rolling execution back to the last checkpoint. Checkpoint writes and
// post-outage restores are charged through the iomodel filesystem, so
// the cost of surviving interruptions is the same I/O arithmetic the
// resilient MPI runtime pays.
type SpotConfig struct {
	// Plan holds the outage windows in virtual seconds (facility time).
	// OutageAt freezes the pool's scheduler; a running job interrupted by
	// an outage rolls back to its last checkpoint (fault.Progress).
	Plan *fault.Plan
	// Price is the $ per slot-hour billed for busy time on the pool.
	Price float64

	// CheckpointInterval is the execution seconds between periodic
	// checkpoints (0 = no checkpointing: every interruption restarts the
	// job from zero).
	CheckpointInterval float64
	// CheckpointBytes is the per-rank checkpoint image size; the write
	// (and the restore after an outage) is priced by FS and added to the
	// job's busy time.
	CheckpointBytes int64
	// FS prices checkpoint writes and restores. Required when
	// CheckpointBytes is set.
	FS iomodel.FS
}

// Validate rejects malformed spot configurations.
func (s *SpotConfig) Validate() error {
	if s.Price < 0 {
		return fmt.Errorf("facility: spot price %g must be non-negative", s.Price)
	}
	if s.CheckpointInterval < 0 || s.CheckpointBytes < 0 {
		return fmt.Errorf("facility: negative spot checkpoint knob")
	}
	if s.CheckpointBytes > 0 {
		if err := s.FS.Validate(); err != nil {
			return fmt.Errorf("facility: spot checkpoint filesystem: %w", err)
		}
	}
	return s.Plan.Validate()
}

// spotResult is one spot execution, computed in closed form at dispatch.
type spotResult struct {
	end           float64 // wall completion time (includes outage gaps)
	billed        float64 // busy seconds billed (exec + checkpoints + restores)
	interruptions int
	lost          float64 // rolled-back execution seconds
}

// run walks one job of `base` execution seconds starting at `start`
// through the outage plan: execution and periodic checkpoint writes
// accumulate busy (billed) time; an outage interrupts the job, rolls
// progress back to the durable point (fault.Progress arithmetic) and,
// once capacity returns, charges a checkpoint restore before execution
// resumes. The walk is a pure function of (start, base, np, config), so
// the facility needs only one completion event per spot job.
func (s *SpotConfig) run(start, base float64, np int) spotResult {
	var res spotResult
	var ckWrite, ckRestore float64
	if s.CheckpointInterval > 0 && s.CheckpointBytes > 0 {
		ckWrite = s.FS.CheckpointSeconds(s.CheckpointBytes, np)
		ckRestore = s.FS.ReadSeconds(s.CheckpointBytes, np)
	}
	prog := fault.Progress{Total: base}
	// Free checkpoints (no write cost) take no wall time, so execution
	// does not stop for them: the durable point is the last whole
	// interval of progress (fault.Progress.Quantum), taken when an outage
	// strikes. Only costly writes split execution, which keeps a
	// free-checkpoint run's clock arithmetic identical to a
	// restart-from-zero run's between outages.
	periodic := s.CheckpointInterval > 0 && ckWrite > 0
	if s.CheckpointInterval > 0 && !periodic {
		prog.Quantum = s.CheckpointInterval
	}
	t := start
	sinceCk := 0.0
	for !prog.Completed() {
		if end, out := s.Plan.OutageEnd(t); out {
			// Capacity lost: roll back to the durable point and wait the
			// outage out; resuming from a checkpoint pays the restore read.
			if prog.Quantum > 0 {
				prog.Checkpoint()
			}
			res.lost += prog.Interrupt()
			res.interruptions++
			sinceCk = 0
			t = end
			if prog.Durable > 0 && ckRestore > 0 {
				t += ckRestore
				res.billed += ckRestore
			}
			continue
		}
		// Execute until completion, the next periodic checkpoint, or the
		// next outage — whichever is first.
		seg := prog.Remaining()
		if periodic {
			if d := s.CheckpointInterval - sinceCk; d < seg {
				seg = d
			}
		}
		if at, ok := s.Plan.NextOutage(t); ok && at-t < seg {
			seg = at - t
		}
		if seg > 0 {
			prog.Advance(seg)
			res.billed += seg
			t += seg
			sinceCk += seg
		}
		if prog.Completed() {
			break
		}
		if periodic && sinceCk >= s.CheckpointInterval {
			t += ckWrite
			res.billed += ckWrite
			prog.Checkpoint()
			sinceCk = 0
		}
	}
	res.end = t
	return res
}

// MarketSpot derives a SpotConfig from the paper-era cc1.4xlarge spot
// market: the deterministic price path against `bid` yields the outage
// windows (arrive.SpotMarket.InterruptionPlan works in hours; the
// facility clock is seconds, so the plan is rescaled), billed at the
// market's long-run mean spot price, with periodic checkpoints of
// ckBytes per rank priced on the EC2 NFS filesystem. horizonHours of 0
// means the market's two-week default.
func MarketSpot(seed uint64, bid, horizonHours float64, ckBytes int64) (*SpotConfig, error) {
	m := arrive.NewSpotMarket(seed)
	plan, err := m.InterruptionPlan(bid, horizonHours)
	if err != nil {
		return nil, err
	}
	for i := range plan.Outages {
		plan.Outages[i].Start *= 3600
		plan.Outages[i].End *= 3600
	}
	for i := range plan.Preemptions {
		plan.Preemptions[i].At *= 3600
	}
	cfg := &SpotConfig{
		Plan:               plan,
		Price:              m.Mean,
		CheckpointInterval: 3600,
		CheckpointBytes:    ckBytes,
		FS:                 iomodel.NFSEC2(),
	}
	return cfg, cfg.Validate()
}
