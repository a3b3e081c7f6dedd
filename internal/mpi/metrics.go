package mpi

import "repro/internal/obs"

// worldMetrics holds the observability handles of one world. The zero
// value (no registry attached) carries nil handles, and every obs method
// is a no-op on nil, so instrumented code never branches on whether
// metrics are enabled.
//
// Per-message traffic does not touch these handles: each rank meters
// into its own rankTally and the inbox depth tally, and World.Run folds
// those into the handles once every rank has returned (fold). Rarer
// events (fault, restart and checkpoint activity) add to the handles
// directly.
//
// Deterministic metrics (counts, bytes, virtual-time nanoseconds rounded
// per event) register as stable; anything driven by real scheduling
// (sync.Pool reuse, inbox depth at delivery time) registers volatile and
// stays out of stable snapshots.
type worldMetrics struct {
	sends, recvs         *obs.Counter
	sendBytes, recvBytes *obs.Counter
	eager, rendezvous    *obs.Counter
	waitNS, queuedNS     *obs.Counter
	msgBytes             *obs.Histogram

	poolLease, poolMiss *obs.Counter   // volatile: sync.Pool reuse is scheduling-dependent
	inboxDepth          *obs.Histogram // volatile: depth at delivery depends on interleaving

	ranksLost         *obs.Counter
	restarts          *obs.Counter
	checkpoints       *obs.Counter
	lostWorkNS        *obs.Counter
	restartOverheadNS *obs.Counter

	ckptBytes     *obs.Counter
	commitStallNS *obs.Counter
}

// rankTally is one rank's message metering for the Run in flight: plain
// integers, written only by the rank's own goroutine — or, while the
// rank is parked with a window of logged phantom operations, by the
// evaluator under the slot lock, exactly like its clock. Virtual-time
// waits are rounded to nanoseconds per event, as Counter.AddSeconds
// would, so the folded totals equal per-event metering. It lives in the
// rank's pooled inbox, not in the per-Run rank state, so it costs no
// allocation per Run.
type rankTally struct {
	sends, recvs         int64
	sendBytes, recvBytes int64
	eager, rendezvous    int64
	waitNS, queuedNS     int64
	poolLease, poolMiss  int64
	msgBytes             obs.Tally
}

// fold adds a rank's tally and its inbox's depth tally to the handles.
func (m *worldMetrics) fold(t *rankTally, depth *obs.Tally) {
	m.sends.Add(t.sends)
	m.recvs.Add(t.recvs)
	m.sendBytes.Add(t.sendBytes)
	m.recvBytes.Add(t.recvBytes)
	m.eager.Add(t.eager)
	m.rendezvous.Add(t.rendezvous)
	m.waitNS.Add(t.waitNS)
	m.queuedNS.Add(t.queuedNS)
	m.msgBytes.Merge(&t.msgBytes)
	m.poolLease.Add(t.poolLease)
	m.poolMiss.Add(t.poolMiss)
	m.inboxDepth.Merge(depth)
}

func newWorldMetrics(r *obs.Registry) worldMetrics {
	return worldMetrics{
		sends:     r.Counter("mpi_sends_total", "point-to-point messages injected"),
		recvs:     r.Counter("mpi_recvs_total", "point-to-point messages received"),
		sendBytes: r.Counter("mpi_send_bytes_total", "modelled payload bytes sent"),
		recvBytes: r.Counter("mpi_recv_bytes_total", "modelled payload bytes received"),
		eager:     r.Counter("mpi_eager_total", "messages below the rendezvous threshold"),
		rendezvous: r.Counter("mpi_rendezvous_total",
			"messages at or above the rendezvous threshold"),
		waitNS: r.Counter("mpi_recv_wait_ns_total",
			"virtual ns receivers sat blocked before arrival (late sender)"),
		queuedNS: r.Counter("mpi_recv_queued_ns_total",
			"virtual ns messages sat unmatched before the receive (late receiver)"),
		msgBytes: r.Histogram("mpi_message_bytes", "payload size distribution"),
		poolLease: r.VolatileCounter("mpi_pool_leases_total",
			"message envelopes leased from the pool"),
		poolMiss: r.VolatileCounter("mpi_pool_misses_total",
			"leases that allocated a fresh envelope"),
		inboxDepth: r.VolatileHistogram("mpi_inbox_depth",
			"unmatched messages queued at delivery time"),
		ranksLost: r.Counter("fault_ranks_lost_total", "ranks killed by node preemptions"),
		restarts:  r.Counter("fault_restarts_total", "resilient-run restarts"),
		checkpoints: r.Counter("fault_checkpoints_total",
			"checkpoints committed by completing resilient runs"),
		lostWorkNS: r.Counter("fault_lost_work_ns_total",
			"virtual ns of per-rank progress discarded by restarts"),
		restartOverheadNS: r.Counter("fault_restart_overhead_ns_total",
			"virtual ns spent in restart delays"),
		ckptBytes: r.Counter("io_checkpoint_bytes_total", "checkpoint bytes written"),
		commitStallNS: r.Counter("io_commit_stall_ns_total",
			"virtual ns ranks stalled aligning to checkpoint commits"),
	}
}

// WithMetrics attaches an observability registry: the world registers
// its instruments there and meters message traffic, wait states, pool
// behaviour and fault/checkpoint activity. Message-plane counts land in
// the registry when Run returns — on success, rank failure and deadlock
// alike — not while it runs; a Run abandoned by the real-time watchdog
// returns without adding them. A nil registry changes nothing.
func WithMetrics(r *obs.Registry) Option {
	return func(w *World) {
		if r != nil {
			w.met = newWorldMetrics(r)
		}
	}
}
