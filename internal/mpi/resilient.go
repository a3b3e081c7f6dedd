package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/fault"
)

// ErrRankFailed is matched (via errors.Is) by every failure error the
// runtime returns when a fault plan preempts a node.
var ErrRankFailed = errors.New("mpi: rank failed")

// errPeerFailed is assigned to surviving ranks unwound by the
// post-failure abort; World.Run reports the originating failure instead.
var errPeerFailed = fmt.Errorf("aborted after peer failure: %w", ErrRankFailed)

// RankFailedError reports a node preemption from the fault plan: the
// first rank to hit its scheduled death, the node that was preempted
// (taking all of its ranks with it), and the virtual time of the event.
type RankFailedError struct {
	Rank int
	Node int
	At   float64 // virtual seconds
}

// Error implements error.
func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d lost (node %d preempted at t=%.3fs)", e.Rank, e.Node, e.At)
}

// Is matches the ErrRankFailed sentinel.
func (e *RankFailedError) Is(target error) bool { return target == ErrRankFailed }

// resilState is the durable checkpoint store shared by every incarnation
// of a resilient run. Commits are append-only and monotone in step.
type resilState struct {
	mu    sync.Mutex
	steps []int
	times []float64
}

// commit records a completed checkpoint. Every rank of the world calls
// this with identical arguments as it leaves the checkpoint collective;
// the first call stores, the rest are no-ops.
func (rs *resilState) commit(step int, at float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if n := len(rs.steps); n > 0 && rs.steps[n-1] >= step {
		return
	}
	rs.steps = append(rs.steps, step)
	rs.times = append(rs.times, at)
}

// restore returns the most recent checkpoint that was durable by virtual
// time `before` (0, 0 when none): a checkpoint whose commit completed
// after the failure cannot be restored from.
func (rs *resilState) restore(before float64) (step int, at float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := len(rs.steps) - 1; i >= 0; i-- {
		if rs.times[i] <= before {
			return rs.steps[i], rs.times[i]
		}
	}
	return 0, 0
}

func (rs *resilState) count() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.steps)
}

// Checkpoint writes a rank-level application checkpoint after completing
// `step` timesteps: every rank of the communicator writes its shard of
// `bytes` through the platform's shared-filesystem model (write plus
// durability commit — Lustre vs NFS checkpoint cost is a platform
// difference the fault experiments measure), then the ranks agree on the
// commit time and synchronise to it. Under RunResilient a later failure
// restarts from the last committed checkpoint; under plain Run the cost
// is still charged but nothing is recorded. Collective: every rank must
// call it with the same arguments.
func (c *Comm) Checkpoint(step int, bytes int64) {
	if step <= 0 {
		panic(fmt.Sprintf("mpi: checkpoint step %d must be positive", step))
	}
	if bytes < 0 {
		panic("mpi: negative checkpoint size")
	}
	c.st.observe()
	w := c.st.world
	writers := c.Size()
	shard := bytes / int64(writers)
	c.advance("io", w.Platform.FS.WriteSeconds(shard, writers))
	c.advance("io", w.Platform.FS.CommitSeconds(writers))
	w.met.ckptBytes.Add(shard)
	// The checkpoint is durable only when the slowest shard is written;
	// agree on that time and barrier-align every rank to it.
	t := []float64{c.st.clock}
	c.Allreduce(Max, t)
	if t[0] > c.st.clock {
		w.met.commitStallNS.AddSeconds(t[0] - c.st.clock)
		c.st.clock = t[0]
	}
	if w.resil != nil {
		w.resil.commit(step, t[0])
	}
}

// ResumeStep returns the application timestep to resume from: 0 on a
// fresh start, or the last durable Checkpoint step after a restart.
// Applications with checkpoint hooks start their timestep loop here.
func (c *Comm) ResumeStep() int { return c.st.world.resumeStep }

// Incarnation returns how many times this world has been restarted
// (0 for the first attempt).
func (w *World) Incarnation() int { return w.incarnation }

// ResilientConfig configures RunResilient.
type ResilientConfig struct {
	// Plan supplies the fault schedule (nil or empty: no faults, and the
	// run is bit-identical to plain Run).
	Plan *fault.Plan
	// RestartDelay is the virtual seconds between a failure and the
	// restarted incarnation's ranks starting (re-queue, boot, reread
	// input). Default 30s.
	RestartDelay float64
	// MaxRestarts bounds the number of restarts before giving up
	// (default 64).
	MaxRestarts int
	// NewTracer, when set, supplies a fresh tracer per incarnation
	// (incarnation 0 is the first attempt). Without it the world's
	// original tracer observes every incarnation, including discarded
	// work.
	NewTracer func(incarnation int) Tracer
}

// ResilientStats accounts the overhead of running under failures.
type ResilientStats struct {
	Restarts        int       // completed restarts
	Checkpoints     int       // committed checkpoints
	LostWork        float64   // virtual seconds of progress discarded per rank
	RestartOverhead float64   // virtual seconds spent restarting
	Failures        []Failure // every preemption that killed an incarnation
}

// Failure is one fatal preemption of a resilient run.
type Failure struct {
	Rank int
	Node int
	At   float64
}

// RunResilient executes fn under the fault plan with checkpoint/restart:
// when a node preemption kills the world, a fresh incarnation starts
// RestartDelay virtual seconds after the failure and resumes from the
// last durable Checkpoint (step 0 when none). The returned Result is the
// completing incarnation's; its clocks include all failed attempts and
// restart delays, so Result.Time is the job's true time-to-solution.
func (w *World) RunResilient(cfg ResilientConfig, fn func(c *Comm) error) (*Result, *ResilientStats, error) {
	if cfg.RestartDelay <= 0 {
		cfg.RestartDelay = 30
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 64
	}
	stats := &ResilientStats{}
	rs := &resilState{}
	start, resume := 0.0, 0
	for inc := 0; ; inc++ {
		iw := &World{
			Platform:    w.Platform,
			Placement:   w.Placement,
			np:          w.np,
			tracer:      w.tracer,
			seed:        w.seed,
			timeout:     w.timeout,
			met:         w.met,
			resil:       rs,
			incStart:    start,
			resumeStep:  resume,
			incarnation: inc,
		}
		if !cfg.Plan.Empty() {
			iw.faults = cfg.Plan
		}
		if cfg.NewTracer != nil {
			iw.tracer = cfg.NewTracer(inc)
		}
		iw.inboxes = leaseInboxes(iw.np)
		res, err := iw.Run(fn)
		if err == nil {
			stats.Checkpoints = rs.count()
			w.met.checkpoints.Add(int64(stats.Checkpoints))
			iw.Release()
			return res, stats, nil
		}
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			return nil, stats, err
		}
		stats.Failures = append(stats.Failures, Failure{Rank: rf.Rank, Node: rf.Node, At: rf.At})
		if inc+1 > cfg.MaxRestarts {
			stats.Checkpoints = rs.count()
			return nil, stats, fmt.Errorf("mpi: gave up after %d restarts: %w", cfg.MaxRestarts, rf)
		}
		step, at := rs.restore(rf.At)
		stats.LostWork += rf.At - math.Max(at, start)
		stats.RestartOverhead += cfg.RestartDelay
		stats.Restarts++
		w.met.restarts.Inc()
		w.met.lostWorkNS.AddSeconds(rf.At - math.Max(at, start))
		w.met.restartOverheadNS.AddSeconds(cfg.RestartDelay)
		start = rf.At + cfg.RestartDelay
		resume = step
	}
}
