package mpi

import (
	"fmt"
	"math"

	"repro/internal/cpumodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// rankState is the per-rank execution state shared by every communicator
// handle of that rank (the virtual clock must not fork across Split).
type rankState struct {
	world *World
	wrank int // world rank
	clock float64
	rng   *sim.RNG
	tally *rankTally // message metering, in this rank's pooled inbox

	commTime    float64
	computeTime float64
	ioTime      float64

	// Wait-state accumulators for the call in flight: recvRaw adds to
	// them, record() stamps them onto the CallRecord and resets, so a
	// collective aggregates the waits of its (quiet) inner receives.
	waitAcc   float64
	queuedAcc float64
	maxWait   float64
	waitPeer  int // world rank of the largest single wait; -1 = none

	region string
	quiet  int  // >0 suppresses tracing/accounting of nested operations
	solo   bool // single-communicator phase: sender owns the whole NIC

	// win is the slot holding this rank's open window of logged phantom
	// operations, nil when it has none; winRank is the rank's index in
	// that communicator. See schedule.go.
	win     *slot
	winRank int

	deathAt   float64             // preemption time of this rank's node (+Inf: none)
	throttles []cpumodel.Throttle // straggler windows from the fault plan
}

// Comm is one rank's handle on a communicator. The zero value is not
// usable; communicators are created by World.Run and Comm.Split.
type Comm struct {
	st      *rankState
	ctx     uint64 // communicator context id, isolates message matching
	rank    int    // rank within this communicator
	group   []int  // communicator rank -> world rank
	nsplits int    // split generation counter for context derivation
}

// initComm initialises one rank's communicator handle and execution
// state in place. World.Run carves both out of contiguous slabs, so a
// world's per-rank state costs O(1) allocations, not O(np).
func initComm(c *Comm, st *rankState, w *World, rank int, group []int) {
	*st = rankState{
		world:    w,
		wrank:    rank,
		clock:    w.incStart,
		rng:      sim.NewRNG(w.Platform.Seed ^ w.seed).Derive(uint64(rank) + 1),
		tally:    &w.inboxes[rank].tally,
		deathAt:  math.Inf(1),
		waitPeer: -1,
	}
	if w.faults != nil {
		if at, ok := w.faults.NodeDeath(w.Placement.NodeOf[rank], w.incStart); ok {
			st.deathAt = at
		}
		st.throttles = w.faults.ThrottlesFor(rank)
	}
	*c = Comm{st: st, ctx: 1, rank: rank, group: group}
}

// killPanic aborts the current rank at its scheduled preemption time;
// abortPanic unwinds a surviving rank once the world is quiescent (after
// a failure, or at a deadlock).
// Both are recovered by World.Run.
type (
	killPanic  struct{}
	abortPanic struct{}
)

// maybeDie kills this rank if its virtual clock has reached the node's
// scheduled preemption. Checked at every operation boundary, so a rank
// dies at the first quantum after the fault fires — deterministically,
// because the clock itself is deterministic.
func (c *Comm) maybeDie() {
	st := c.st
	if st.clock >= st.deathAt {
		st.clock = st.deathAt
		st.world.markFailed(st.wrank, st.world.Placement.NodeOf[st.wrank], st.deathAt)
		panic(killPanic{})
	}
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Clock returns the rank's current virtual time in seconds. It waits
// for the rank's logged phantom operations to be evaluated.
func (c *Comm) Clock() float64 {
	c.st.observe()
	return c.st.clock
}

// RNG returns this rank's deterministic random stream (for workload
// generation that must differ by rank but stay reproducible). It waits
// for the rank's logged phantom operations to be evaluated, so draw
// from the stream before the rank's next operation, not after.
func (c *Comm) RNG() *sim.RNG {
	c.st.observe()
	return c.st.rng
}

// SetSolo marks a phase in which effectively one rank communicates at a
// time (e.g. a startup scatter from rank 0 while everyone else waits), so
// the sender is not charged NIC contention from its idle node-mates. The
// static contention model otherwise assumes bulk-synchronous phases where
// all co-located ranks transmit concurrently.
func (c *Comm) SetSolo(on bool) {
	c.st.observe()
	c.st.solo = on
}

// Region switches the active profiling region label recorded with
// subsequent operations (IPM's MPI_Pcontrol sections).
func (c *Comm) Region(name string) {
	c.st.observe()
	c.st.region = name
	if t := c.st.world.tracer; t != nil {
		t.Region(c.st.wrank, name, c.st.clock)
	}
}

// contention returns this rank's CPU contention context.
func (c *Comm) contention() cpumodel.Context {
	pl := c.st.world.Placement
	return cpumodel.Context{
		RanksOnNode: pl.RanksPerNode[pl.NodeOf[c.st.wrank]],
		NUMAPinned:  c.st.world.Platform.NUMAPinned,
	}
}

// Compute charges the modelled cost of w to this rank's clock, including
// the platform's compute jitter. Behind a logged phantom operation it is
// logged too, and charged when the window is evaluated.
func (c *Comm) Compute(w cpumodel.Work) {
	p := c.st.world.Platform
	secs := p.CPU.Seconds(w, c.contention()) * p.ComputeOverhead
	if c.st.logCompute(opCompute, secs) {
		return
	}
	secs = p.ComputeJitter.Apply(c.st.rng, secs)
	c.advance("compute", secs)
}

// ComputeSeconds charges raw virtual seconds of computation (no jitter,
// no CPU scaling); used for calibrated fixed costs. Like Compute, it is
// logged behind a logged phantom operation.
func (c *Comm) ComputeSeconds(secs float64) {
	if !c.st.logCompute(opSeconds, secs) {
		c.advance("compute", secs)
	}
}

// ReadShared charges the cost of reading n bytes from the platform's
// shared filesystem while `readers` ranks read concurrently.
func (c *Comm) ReadShared(n int64, readers int) {
	c.st.observe()
	c.advance("io", c.st.world.Platform.FS.ReadSeconds(n, readers))
}

// WriteShared charges the cost of writing n bytes to the shared filesystem
// while `writers` ranks write concurrently.
func (c *Comm) WriteShared(n int64, writers int) {
	c.st.observe()
	c.advance("io", c.st.world.Platform.FS.WriteSeconds(n, writers))
}

func (c *Comm) advance(kind string, secs float64) {
	if secs < 0 {
		panic(fmt.Sprintf("mpi: negative %s advance %g", kind, secs))
	}
	c.maybeDie()
	if kind == "compute" && len(c.st.throttles) > 0 {
		secs = cpumodel.StretchSeconds(secs, c.st.clock, c.st.throttles)
	}
	start := c.st.clock
	c.st.clock += secs
	switch kind {
	case "compute":
		c.st.computeTime += secs
	case "io":
		c.st.ioTime += secs
	}
	if t := c.st.world.tracer; t != nil && c.st.quiet == 0 {
		t.Advance(c.st.wrank, kind, start, secs)
	}
}

// record accounts a completed communication call that began at start.
// The wait-state accumulators reset only here, on the non-quiet path, so
// the receives inside a collective roll up into one record.
func (c *Comm) record(name string, bytes int, start float64) {
	st := c.st
	if st.quiet > 0 {
		return
	}
	dur := st.clock - start
	st.commTime += dur
	if t := st.world.tracer; t != nil {
		t.Call(st.wrank, CallRecord{
			Name: name, Bytes: bytes, Start: start, Dur: dur, Region: st.region,
			Wait: st.waitAcc, Queued: st.queuedAcc, Peer: st.waitPeer,
		})
	}
	st.waitAcc, st.queuedAcc, st.maxWait = 0, 0, 0
	st.waitPeer = -1
}

// link returns the transport between two world ranks.
func (w *World) link(a, b int) *netmodel.Link {
	return w.Platform.Link(w.Placement.NodeOf[a], w.Placement.NodeOf[b])
}

func (c *Comm) checkRank(r int, what string) {
	if r < 0 || r >= len(c.group) {
		panic(fmt.Sprintf("mpi: %s rank %d out of range [0,%d)", what, r, len(c.group)))
	}
}

// sendMsg injects the (caller-filled) envelope m towards communicator
// rank dst and returns the call start time. Ownership of m transfers to
// the receiving rank at put; the caller must not touch it afterwards.
func (c *Comm) sendMsg(dst, tag int, m *message, bytes int) float64 {
	c.checkRank(dst, "destination")
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: negative tag %d", tag))
	}
	c.maybeDie()
	start := c.st.clock
	wdst := c.group[dst]
	m.ctx, m.src, m.tag = c.ctx, c.st.wrank, tag
	m.bytes, m.arrive = bytes, c.st.sendCost(wdst, bytes)
	c.st.world.inboxes[wdst].put(c.st.world, m)
	return start
}

// sendCost charges this rank's side of one bytes-long message to world
// rank wdst and returns the message's arrival time at the receiver: the
// sender's busy time (with the link's jitter drawn from this rank's own
// stream), the NIC bandwidth share, any fault-plan link degradation and
// the send tally. The message plane and the collective schedule
// evaluator both charge every message through here, so the two agree
// bit for bit on clocks, random draws and metrics.
//
// Inter-node messages contend for the NIC with the other ranks of the
// busier endpoint node (bulk-synchronous codes communicate
// simultaneously), unless the rank is in a solo phase; intra-node
// copies never cross the NIC. The bandwidth divisor of each contention
// level comes from the World's per-Run table.
func (st *rankState) sendCost(wdst, bytes int) float64 {
	start := st.clock
	w := st.world
	pl := w.Placement
	na, nb := pl.NodeOf[st.wrank], pl.NodeOf[wdst]
	link, div := w.Platform.Link(na, nb), 1.0
	if na != nb {
		if !st.solo {
			div = w.shareDiv[max(pl.RanksPerNode[na], pl.RanksPerNode[nb])]
		}
		if w.faults != nil {
			// Inter-node transfers feel the fault plan's link degradation
			// windows; intra-node copies never cross the degraded fabric.
			if lf, bf := w.faults.DegradationAt(start); lf > 1 || bf > 1 {
				dl := link.Degraded(lf, bf)
				link = &dl
			}
		}
	}
	busy, delay := link.TransferDivided(st.rng, bytes, div)
	st.clock += busy
	t := st.tally
	t.sends++
	t.sendBytes += int64(bytes)
	t.msgBytes.Observe(int64(bytes))
	if rv := RendezvousBytes(); rv > 0 && int64(bytes) >= rv {
		t.rendezvous++
	} else {
		t.eager++
	}
	return start + delay
}

// leaseMessage leases a pooled envelope, tallying pool traffic.
func (c *Comm) leaseMessage() *message {
	m, fresh := newMessage()
	c.st.tally.poolLease++
	if fresh {
		c.st.tally.poolMiss++
	}
	return m
}

// sendPhantom leases an envelope for an n-byte size-only message and
// injects it.
func (c *Comm) sendPhantom(dst, tag, n int) float64 {
	m := c.leaseMessage()
	m.kind = payloadNone
	return c.sendMsg(dst, tag, m, n)
}

// sendF64 leases an envelope, copies data into its pooled payload buffer
// and injects it. The copy is the only per-message data movement on the
// send side; the buffer itself is recycled when the receiver completes.
func (c *Comm) sendF64(dst, tag int, data []float64) float64 {
	m := c.leaseMessage()
	m.kind = payloadF64
	m.f64 = grownF64(m.f64, len(data))
	copy(m.f64, data)
	return c.sendMsg(dst, tag, m, 8*len(data))
}

// recvRaw blocks for a matching message, advances the clock to its arrival
// and returns it. src may be AnySource.
func (c *Comm) recvRaw(src, tag int) *message {
	c.maybeDie()
	wsrc := AnySource
	if src != AnySource {
		c.checkRank(src, "source")
		wsrc = c.group[src]
	}
	m := c.st.world.inboxes[c.st.wrank].match(c.st.world, c.ctx, wsrc, tag)
	c.st.recvCost(m.src, m.bytes, m.arrive)
	return m
}

// recvCost accounts one received bytes-long message from world rank wsrc
// that arrived at virtual time arrive: the receive tally, the
// late-sender wait or late-receiver queueing it implies, the call's
// waitPeer, and the receive overhead. Like sendCost it is shared by the
// message plane and the collective schedule evaluator.
func (st *rankState) recvCost(wsrc, bytes int, arrive float64) {
	t := st.tally
	t.recvs++
	t.recvBytes += int64(bytes)
	// Classify the wait state before advancing the clock: arrival after
	// the receive entry is late-sender blocked time, arrival before it
	// means the message sat queued (late receiver). Neither changes any
	// clock value the model already computed.
	if arrive > st.clock {
		wait := arrive - st.clock
		st.waitAcc += wait
		if wait > st.maxWait {
			st.maxWait = wait
			st.waitPeer = wsrc
		}
		t.waitNS += obs.Nanoseconds(wait)
		st.clock = arrive
	} else if arrive < st.clock {
		queued := st.clock - arrive
		st.queuedAcc += queued
		t.queuedNS += obs.Nanoseconds(queued)
	}
	st.clock += st.world.link(wsrc, st.wrank).RecvOverhead
}

// Send transmits data to communicator rank dst with the given tag,
// blocking (in virtual time) for the eager injection cost. The slice is
// copied (into a pooled payload buffer), so the caller may reuse it
// immediately.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.st.observe()
	start := c.sendF64(dst, tag, data)
	c.record("Send", 8*len(data), start)
}

// SendInts transmits an int slice.
func (c *Comm) SendInts(dst, tag int, data []int) {
	c.st.observe()
	m := c.leaseMessage()
	m.kind = payloadInt
	m.ints = grownInt(m.ints, len(data))
	copy(m.ints, data)
	start := c.sendMsg(dst, tag, m, 8*len(data))
	c.record("Send", 8*len(data), start)
}

// SendComplex transmits a complex128 slice.
func (c *Comm) SendComplex(dst, tag int, data []complex128) {
	c.st.observe()
	m := c.leaseMessage()
	m.kind = payloadCplx
	m.cplx = grownCplx(m.cplx, len(data))
	copy(m.cplx, data)
	start := c.sendMsg(dst, tag, m, 16*len(data))
	c.record("Send", 16*len(data), start)
}

// SendN transmits a phantom message of n bytes: the full communication
// cost is modelled but no payload is copied. Skeleton workloads use
// this to replay class-B communication patterns cheaply.
func (c *Comm) SendN(dst, tag, n int) {
	c.st.observe()
	start := c.sendPhantom(dst, tag, n)
	c.record("Send", n, start)
}

// Recv blocks until a message from src with tag arrives and copies its
// payload into buf, returning the number of elements received. It panics
// if the payload type mismatches or buf is too small (MPI truncation).
func (c *Comm) Recv(src, tag int, buf []float64) int {
	c.st.observe()
	start := c.st.clock
	m := c.recvRaw(src, tag)
	n := copyFloat64(buf, m)
	bytes := m.bytes
	m.release()
	c.record("Recv", bytes, start)
	return n
}

// RecvInts is Recv for int payloads.
func (c *Comm) RecvInts(src, tag int, buf []int) int {
	c.st.observe()
	start := c.st.clock
	m := c.recvRaw(src, tag)
	n := copyInt(buf, m)
	bytes := m.bytes
	m.release()
	c.record("Recv", bytes, start)
	return n
}

// RecvComplex is Recv for complex128 payloads.
func (c *Comm) RecvComplex(src, tag int, buf []complex128) int {
	c.st.observe()
	start := c.st.clock
	m := c.recvRaw(src, tag)
	n := copyComplex(buf, m)
	bytes := m.bytes
	m.release()
	c.record("Recv", bytes, start)
	return n
}

// RecvN receives a phantom message and returns its modelled size in bytes.
func (c *Comm) RecvN(src, tag int) int {
	c.st.observe()
	start := c.st.clock
	m := c.recvRaw(src, tag)
	if m.kind != payloadNone {
		panic("mpi: RecvN matched a message with a real payload")
	}
	bytes := m.bytes
	m.release()
	c.record("Recv", bytes, start)
	return bytes
}

// recvCombine receives a float64 message and folds it into data in
// place, recycling the payload buffer afterwards — the zero-copy receive
// path of the tree and recursive-doubling reductions, which previously
// staged every round through a freshly allocated scratch slice.
func (c *Comm) recvCombine(op Op, src, tag int, data []float64) {
	start := c.st.clock
	m := c.recvRaw(src, tag)
	if m.kind != payloadF64 {
		panic(fmt.Sprintf("mpi: reduction receive type mismatch: message holds %s, want []float64", m.kind))
	}
	op.combine(data, m.f64)
	bytes := m.bytes
	m.release()
	c.record("Recv", bytes, start)
}

// SendrecvN performs a combined phantom send of sendN bytes to dst and
// receive of a phantom message from src, the staple of halo exchanges. It
// cannot deadlock because sends are eager.
func (c *Comm) SendrecvN(dst, sendTag, sendN, src, recvTag int) int {
	c.st.observe()
	start := c.st.clock
	c.sendPhantom(dst, sendTag, sendN)
	m := c.recvRaw(src, recvTag)
	bytes := m.bytes
	m.release()
	c.record("Sendrecv", sendN+bytes, start)
	return bytes
}

func copyFloat64(buf []float64, m *message) int {
	if m.kind == payloadNone {
		panic("mpi: typed receive matched a phantom message")
	}
	if m.kind != payloadF64 {
		panic(fmt.Sprintf("mpi: receive type mismatch: message holds %s, want []float64", m.kind))
	}
	if len(m.f64) > len(buf) {
		panic(fmt.Sprintf("mpi: message truncated: %d elements into buffer of %d", len(m.f64), len(buf)))
	}
	return copy(buf, m.f64)
}

func copyInt(buf []int, m *message) int {
	if m.kind == payloadNone {
		panic("mpi: typed receive matched a phantom message")
	}
	if m.kind != payloadInt {
		panic(fmt.Sprintf("mpi: receive type mismatch: message holds %s, want []int", m.kind))
	}
	if len(m.ints) > len(buf) {
		panic(fmt.Sprintf("mpi: message truncated: %d elements into buffer of %d", len(m.ints), len(buf)))
	}
	return copy(buf, m.ints)
}

func copyComplex(buf []complex128, m *message) int {
	if m.kind == payloadNone {
		panic("mpi: typed receive matched a phantom message")
	}
	if m.kind != payloadCplx {
		panic(fmt.Sprintf("mpi: receive type mismatch: message holds %s, want []complex128", m.kind))
	}
	if len(m.cplx) > len(buf) {
		panic(fmt.Sprintf("mpi: message truncated: %d elements into buffer of %d", len(m.cplx), len(buf)))
	}
	return copy(buf, m.cplx)
}
