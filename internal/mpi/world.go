// Package mpi implements a message-passing runtime in the style of MPI,
// executing on a modelled cluster platform under virtual time.
//
// Ranks are goroutines; point-to-point messages really move data between
// them (eager protocol with source/tag matching), and collectives are
// implemented algorithmically over point-to-point, so communication volume
// and round counts match a real MPI library. Time, however, is virtual:
// each rank carries a clock that advances by modelled computation cost
// (package cpumodel), message injection/flight cost (package netmodel) and
// I/O cost (package iomodel).
//
// Every inter-rank dependency is a real synchronisation between rank
// goroutines, so the timestamps form a causally consistent conservative
// discrete-event simulation. Point-to-point operations, real-payload
// collectives, BcastN, and all collectives of a world under a fault plan
// exchange real messages that carry their virtual arrival times. The
// fault-free phantom collectives Barrier, AllreduceN, AllgatherN and
// AlltoallN are fully synchronising, so they are evaluated as schedules
// instead, as is the fault-free RingExchangeN halo. A rank logs them, and
// the compute charges between them, in a window and keeps running; it
// parks only when it observes virtual time, and the last rank of the
// communicator to park charges every window's rounds through the same
// per-message cost code (see schedule.go). Clocks, CallRecords and
// message counters are the same as the message path's, bit for bit.
//
// Misuse (rank out of range, type-mismatched receive, truncation) panics
// with a descriptive message, mirroring MPI's error-aborts; World.Run
// recovers per-rank panics into errors.
package mpi

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Tracer observes per-rank activity. Implementations must tolerate
// concurrent calls for different ranks. Calls for one rank come in that
// rank's program order, one at a time, but possibly late and from
// another rank's goroutine: the collectives, ring Sends and Recvs and
// compute charges a rank logged in a window are traced by the rank that
// evaluates the window while the logging rank stays parked. The slot
// mutex orders those calls before and after the rank's own.
type Tracer interface {
	// Call records one completed communication operation.
	Call(rank int, rec CallRecord)
	// Advance records non-communication virtual time (kind is "compute" or
	// "io") spent by rank starting at start.
	Advance(rank int, kind string, start, dur float64)
	// Region notes that rank entered the named profiling region at time at.
	Region(rank int, name string, at float64)
}

// CallRecord describes one completed communication operation.
type CallRecord struct {
	Name   string  // operation name, e.g. "Send", "Allreduce"
	Bytes  int     // payload bytes (per-rank contribution for collectives)
	Start  float64 // virtual time at call entry
	Dur    float64 // virtual duration of the call
	Region string  // profiling region active during the call

	// Wait is the virtual time this rank sat blocked inside the call
	// waiting for messages to arrive (summed over the receives of a
	// collective); Queued is how long arrived messages sat unmatched
	// before the receive was posted. Both derive from arrival times the
	// runtime already computes, so they change no clock math. Peer is
	// the world rank responsible for the largest single wait, or -1 if
	// the call never blocked.
	Wait   float64
	Queued float64
	Peer   int
}

// World is a communicator universe: np ranks placed on a platform.
type World struct {
	Platform  *platform.Platform
	Placement *cluster.Placement

	np      int
	inboxes []*inbox
	tracer  Tracer
	seed    uint64
	timeout time.Duration

	met worldMetrics // observability handles; zero value = metering off

	// shareDiv[k] is the inter-node link's bandwidth divisor when k ranks
	// share a NIC (netmodel.Link.ShareDivisor), for every k up to the
	// placement's most crowded node; Run fills it.
	shareDiv []float64

	faults      *fault.Plan // nil = no fault injection
	incStart    float64     // virtual time at which this incarnation's clocks start
	resumeStep  int         // application step to resume from (0 = fresh start)
	incarnation int         // restart count of this incarnation
	resil       *resilState // checkpoint store shared across incarnations
	sb          scoreboard  // rank liveness: quiescence, failure and deadlock

	slotMu sync.Mutex           // serialises slot leases
	slots  atomic.Pointer[slot] // this Run's rendezvous slots, one per communicator context
}

// scoreboard tracks how many ranks can still make progress. A world is
// quiescent once every live rank is blocked in a receive: no rank is
// running, so no message can ever arrive again. After a rank failure
// that is the abort point — the set of operations each survivor
// completed is then the unique maximal one, which is what makes
// checkpoint state deterministic despite the real-time races between
// goroutines. Without a failure it is a deadlock in the rank program,
// diagnosed the moment it happens.
//
// ranks packs both counts into one word so a single atomic add updates
// them together: the low 32 bits count running ranks (live and not
// blocked), the high 32 bits live ranks (not yet returned). Blocking and
// waking touch only the atomic. The rank that brings the running count
// to zero closes quiet; Run, which holds no inbox lock, then diagnoses
// and aborts the world.
type scoreboard struct {
	ranks    atomic.Int64
	quiesced atomic.Bool   // quiet was closed in this Run
	quiet    chan struct{} // closed at the first quiescence of a Run

	mu       sync.Mutex // guards the failure record
	failed   bool
	failRank int
	failNode int
	failAt   float64
}

// liveRank is one live rank in scoreboard.ranks; running ranks are
// counted in units of 1 below it.
const liveRank = 1 << 32

// quiescent reports whether a scoreboard.ranks value has live ranks but
// none running.
func quiescent(ranks int64) bool { return ranks >= liveRank && ranks&(liveRank-1) == 0 }

// enterBlocked marks a rank as blocked in a receive; called with the
// rank's inbox lock held.
func (w *World) enterBlocked() {
	if quiescent(w.sb.ranks.Add(-1)) {
		w.quiesce()
	}
}

// exitBlocked marks a rank runnable again after its receive matched (or
// before it unwinds from an abort).
func (w *World) exitBlocked() { w.sb.ranks.Add(1) }

// rankStopped records that a rank's goroutine finished (normally, by
// dying, or by unwinding from an abort).
func (w *World) rankStopped() {
	if quiescent(w.sb.ranks.Add(-liveRank - 1)) {
		w.quiesce()
	}
}

// quiesce signals Run at the first quiescence of the Run.
func (w *World) quiesce() {
	if w.sb.quiesced.CompareAndSwap(false, true) {
		close(w.sb.quiet)
	}
}

// diagnoseDeadlock names the blocked ranks of a quiescent world in rank
// order: each one's pending receive, e.g. "rank 0 waiting on (src=3,
// tag=99)" (-1 is AnySource/AnyTag), or the collective it is parked in,
// e.g. "rank 1 waiting in Allreduce (ctx=1, 3/4 entered)". Past five,
// the first four are listed and the rest counted.
func (w *World) diagnoseDeadlock() error {
	parked := w.parkedRanks()
	var blocked []string
	for r, b := range w.inboxes {
		b.mu.Lock()
		if b.waiting {
			blocked = append(blocked, fmt.Sprintf("rank %d waiting on (src=%d, tag=%d)", r, b.wsrc, b.wtag))
		} else if parked[r] != "" {
			blocked = append(blocked, parked[r])
		}
		b.mu.Unlock()
	}
	n := len(blocked)
	if n > 5 {
		blocked = append(blocked[:4], fmt.Sprintf("... (%d more)", n-4))
	}
	return fmt.Errorf("mpi: deadlock: %d rank(s) blocked with no runnable peer: %s", n, strings.Join(blocked, " "))
}

// markFailed records a rank death. When several ranks die in one
// incarnation (node-mates of the preempted node, or a second node whose
// preemption fires before the world quiesces), the earliest *virtual*
// death — tie-broken by rank — is the canonical failure, regardless of
// the real-time order the dying goroutines happened to get scheduled
// in. The restart point derives from this identity, so it must be
// deterministic.
func (w *World) markFailed(rank, node int, at float64) {
	w.met.ranksLost.Inc()
	w.sb.mu.Lock()
	if !w.sb.failed || at < w.sb.failAt || (at == w.sb.failAt && rank < w.sb.failRank) {
		w.sb.failed = true
		w.sb.failRank, w.sb.failNode, w.sb.failAt = rank, node, at
	}
	w.sb.mu.Unlock()
}

// abortAll wakes every blocked receiver and every rank parked at a
// rendezvous with the abort flag set. Safe to call multiple times.
func (w *World) abortAll() {
	w.abortSlots()
	for _, b := range w.inboxes {
		b.mu.Lock()
		b.aborted = true
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// Option configures a World.
type Option func(*World)

// WithTracer attaches a tracer (e.g. the IPM profiler).
func WithTracer(t Tracer) Option { return func(w *World) { w.tracer = t } }

// WithSeed offsets all random streams, giving independent repetitions of
// the same experiment (the paper runs each benchmark 5 times).
func WithSeed(s uint64) Option { return func(w *World) { w.seed = s } }

// WithTimeout bounds the real (wall-clock) execution time of Run; a run
// exceeding it returns an error. The default is 5 minutes.
func WithTimeout(d time.Duration) Option { return func(w *World) { w.timeout = d } }

// WithFaults injects a deterministic fault plan: per-rank compute
// throttles, inter-node link degradation windows and node preemptions.
// A preempted node's ranks die at their scheduled virtual time and Run
// returns a *RankFailedError; RunResilient additionally restarts the
// world from its last checkpoint. A nil or empty plan changes nothing.
func WithFaults(p *fault.Plan) Option {
	return func(w *World) {
		if !p.Empty() {
			w.faults = p
		}
	}
}

// NewWorld creates a world of pl.NP ranks on p.
func NewWorld(p *platform.Platform, pl *cluster.Placement, opts ...Option) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pl == nil || pl.NP <= 0 {
		return nil, fmt.Errorf("mpi: placement with at least one rank required")
	}
	w := &World{
		Platform:  p,
		Placement: pl,
		np:        pl.NP,
		timeout:   5 * time.Minute,
	}
	for _, o := range opts {
		o(w)
	}
	w.inboxes = leaseInboxes(w.np)
	return w, nil
}

// Release returns the world's pooled resources (inboxes and their bucket
// structures, rendezvous slots) for reuse by future worlds. The world is
// unusable afterwards. Only clean inboxes and slots are recycled — a
// world holding unmatched messages or unwound by an abort sheds them to
// the GC instead. RunOn, core.Execute and the resilient loop release completed
// worlds automatically; long-lived worlds that are Run repeatedly simply
// never call it.
func (w *World) Release() {
	w.releaseSlots()
	releaseInboxes(w.inboxes)
	w.inboxes = nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.np }

// Result summarises one completed run.
type Result struct {
	// Time is the job's virtual wall time: the maximum over ranks of the
	// final clock (all ranks start at 0).
	Time float64
	// RankTimes holds each rank's final virtual clock.
	RankTimes sim.Series
	// CommTimes, ComputeTimes and IOTimes hold each rank's accumulated
	// virtual time by activity.
	CommTimes    sim.Series
	ComputeTimes sim.Series
	IOTimes      sim.Series
}

// Run executes fn once per rank and returns the aggregated result. Any
// rank returning an error or panicking fails the whole run.
func (w *World) Run(fn func(c *Comm) error) (*Result, error) {
	// Per-rank state is carved out of two contiguous slabs: one Run of an
	// np-rank world costs two allocations for all its communicator
	// handles instead of 2*np, which is what the world-churn benchmark
	// measures.
	states := make([]rankState, w.np)
	comms := make([]Comm, w.np)
	group := make([]int, w.np)
	for r := 0; r < w.np; r++ {
		group[r] = r
	}
	for r := 0; r < w.np; r++ {
		initComm(&comms[r], &states[r], w, r, group)
	}
	w.fillShareDivisors()
	w.releaseSlots()
	w.sb.quiet = make(chan struct{})
	w.sb.quiesced.Store(false)
	w.sb.ranks.Store(int64(w.np) * (liveRank + 1))

	errs := make([]error, w.np)
	var wg sync.WaitGroup
	wg.Add(w.np)
	for r := 0; r < w.np; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				p := recover()
				w.rankStopped()
				switch p.(type) {
				case nil:
				case killPanic:
					errs[rank] = &RankFailedError{
						Rank: rank, Node: w.Placement.NodeOf[rank], At: comms[rank].st.clock,
					}
				case abortPanic:
					errs[rank] = errPeerFailed
				default:
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			// Returning observes: the rank's clock must be final.
			if errs[rank] = fn(&comms[rank]); errs[rank] == nil {
				comms[rank].st.observe()
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	//lint:allow reprolint/detwall real-time watchdog: backstop for ranks that spin without blocking, never contributes to virtual time
	watchdog := time.After(w.timeout)
	quiet := w.sb.quiet
	var deadlock error
wait:
	for {
		select {
		case <-done:
			break wait
		case <-quiet:
			// Every live rank is blocked and none can be woken. Unless
			// a rank failure explains it, that is a deadlock: name the
			// blocked receives before the abort unwinds them.
			quiet = nil
			w.sb.mu.Lock()
			failed := w.sb.failed
			w.sb.mu.Unlock()
			if !failed {
				deadlock = w.diagnoseDeadlock()
			}
			w.abortAll()
		case <-watchdog:
			return nil, fmt.Errorf("mpi: run exceeded real-time limit %v (a rank never blocked or returned)", w.timeout)
		}
	}

	w.flushMetrics()
	w.sb.mu.Lock()
	failed, failRank, failNode, failAt := w.sb.failed, w.sb.failRank, w.sb.failNode, w.sb.failAt
	w.sb.mu.Unlock()
	if failed {
		return nil, &RankFailedError{Rank: failRank, Node: failNode, At: failAt}
	}
	// A rank's own error outranks the deadlock it may have caused by
	// leaving its peers waiting; ranks unwound by the abort carry
	// errPeerFailed and report through the diagnosis instead.
	for r, err := range errs {
		if err != nil && err != errPeerFailed {
			return nil, fmt.Errorf("mpi: rank %d: %w", r, err)
		}
	}
	if deadlock != nil {
		return nil, deadlock
	}

	res := &Result{
		RankTimes:    make(sim.Series, w.np),
		CommTimes:    make(sim.Series, w.np),
		ComputeTimes: make(sim.Series, w.np),
		IOTimes:      make(sim.Series, w.np),
	}
	for r, c := range comms {
		res.RankTimes[r] = c.st.clock
		res.CommTimes[r] = c.st.commTime
		res.ComputeTimes[r] = c.st.computeTime
		res.IOTimes[r] = c.st.ioTime
	}
	res.Time = res.RankTimes.Max()
	return res, nil
}

// fillShareDivisors computes the inter-node link's bandwidth divisor for
// every NIC share count the placement can produce, so no send evaluates
// the share exponent. A degraded link keeps the exponent, so the same
// divisors serve fault-plan windows.
func (w *World) fillShareDivisors() {
	most := 1
	for _, k := range w.Placement.RanksPerNode {
		most = max(most, k)
	}
	if cap(w.shareDiv) <= most {
		w.shareDiv = make([]float64, most+1)
	}
	w.shareDiv = w.shareDiv[:most+1]
	for k := range w.shareDiv {
		w.shareDiv[k] = w.Platform.Inter.ShareDivisor(float64(k))
	}
}

// flushMetrics folds every rank's message tallies into the world's
// metric handles. Run calls it once all rank goroutines have returned,
// so no rank is still writing its tally.
func (w *World) flushMetrics() {
	for _, b := range w.inboxes {
		b.flush(&w.met)
	}
}

// RunOn is a convenience wrapper: place np ranks on p with the Block
// policy and run fn.
func RunOn(p *platform.Platform, np int, fn func(c *Comm) error, opts ...Option) (*Result, error) {
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		return nil, err
	}
	w, err := NewWorld(p, pl, opts...)
	if err != nil {
		return nil, err
	}
	res, err := w.Run(fn)
	if err == nil {
		w.Release()
	}
	return res, err
}

// tee fans tracer callbacks out to multiple tracers.
type tee []Tracer

// Tee combines tracers (e.g. the IPM profiler plus a timeline recorder)
// into one. Nil entries are skipped.
func Tee(tracers ...Tracer) Tracer {
	var ts tee
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	return ts
}

// Call implements Tracer.
func (ts tee) Call(rank int, rec CallRecord) {
	for _, t := range ts {
		t.Call(rank, rec)
	}
}

// Advance implements Tracer.
func (ts tee) Advance(rank int, kind string, start, dur float64) {
	for _, t := range ts {
		t.Advance(rank, kind, start, dur)
	}
}

// Region implements Tracer.
func (ts tee) Region(rank int, name string, at float64) {
	for _, t := range ts {
		t.Region(rank, name, at)
	}
}

// Pending returns the number of sent-but-unmatched messages across all
// ranks. After a well-formed program completes it must be zero: every
// send was received. Useful as a post-run invariant check.
func (w *World) Pending() int {
	n := 0
	for _, b := range w.inboxes {
		n += b.pending()
	}
	return n
}
