package mpi

import (
	"fmt"
	"math"
	"sync"
)

// Fault-free phantom collectives are evaluated as schedules, LogGOPSim
// style, instead of being played out as messages. Each of them is fully
// synchronising: every rank's exit already waits on every rank's entry,
// so its outcome is a pure function of the entry clocks, the algorithm's
// round schedule and the per-message cost and jitter draws. The
// evaluator charges every modelled message through the same sendCost
// and recvCost the message plane uses, in the algorithm's dependency
// order. Each rank's random stream is drawn in the order its own sends
// would have drawn it, and the send/receive counters count the modelled
// messages, so clocks, CallRecords and metrics match the message path
// bit for bit.
//
// RingExchangeN, the periodic ring halo, is evaluated the same way
// although it synchronises only neighbours: its exit clocks are still a
// pure function of the entry clocks, so evaluating them once every rank
// has entered changes no virtual time, only the host-time order (which
// is why every rank of the communicator must call it). Unlike the
// collectives it is traced as its individual Sends and Recvs, which the
// evaluator records for each rank as it charges them.
//
// Windows. A rank does not wait at each such operation: it appends it
// to its window in the communicator's slot, together with the Compute
// and ComputeSeconds charges that follow it (un-jittered; the CPU model
// does not depend on the clock), and keeps running. It parks only when
// its window is full or when it observes virtual time or its stream
// (rankState.observe lists the observations). Once every rank of the
// communicator is parked, the last to park evaluates the windows in
// program order: each rank's leading compute charges, drawing their
// jitter from the rank's own stream, then the collective every rank has
// reached, recorded with its true start clock. It then releases every
// rank whose window is empty or, parked full, has room. A rank's random
// draws, clocks, CallRecords and tracer callbacks therefore come in the
// same order and with the same values as if it had parked at every
// operation. With an empty window every operation runs at once, so a
// non-empty window always starts with a collective.
//
// Sends are eager, so a rank never holds back a message a peer needs
// while its window is pending: it parks no earlier in its program than
// at the first logged operation itself. Real-payload collectives, BcastN
// (not fully synchronising) and worlds under a fault plan (whose deaths
// and link degradations are clocked per message) keep the message path
// and never open a window.

// opKind names an operation a rank logs in its window: a fully
// synchronising collective, the ring halo exchange, or a compute charge.
type opKind uint8

const (
	collBarrier   opKind = iota // dissemination barrier
	collAllreduce               // recursive doubling, or reduce to 0 plus binomial bcast
	collAllgather               // ring
	collAlltoall                // pairwise exchange
	collRing                    // periodic ring halo exchange (RingExchangeN)
	opCompute                   // Compute: jittered when charged
	opSeconds                   // ComputeSeconds: charged as logged
)

// String is the operation's name in CallRecords and deadlock diagnoses.
func (k opKind) String() string {
	return [...]string{"Barrier", "Allreduce", "Allgather", "Alltoall", "RingExchange", "Compute", "ComputeSeconds"}[k]
}

// next returns the step after s of an exchange-shaped schedule; steps
// start at 1 and run while below the communicator size.
func (k opKind) next(s int) int {
	if k == collBarrier || k == collAllreduce {
		return s << 1
	}
	return s + 1
}

// peers returns the destination of comm rank r's one send and the
// source of its one receive at step s of a p-rank exchange-shaped
// schedule (every collective except non-power-of-two Allreduce).
func (k opKind) peers(r, p, s int) (dst, src int) {
	switch k {
	case collAllreduce:
		return r ^ s, r ^ s
	case collAllgather:
		return (r + 1) % p, (r - 1 + p) % p
	}
	return (r + s) % p, (r - s + p) % p
}

// op is one logged operation of a rank's window, in 16 bytes: a slot
// keeps a window of windowCap ops for every rank of its communicator.
type op struct {
	kind  opKind
	pairs int32 // ring exchange: neighbour distances on each side
	// n is a collective's bytes per message, or a compute charge's
	// modelled seconds before jitter as math.Float64bits.
	n int
}

// secs returns a compute op's modelled seconds.
func (o *op) secs() float64 { return math.Float64frombits(uint64(o.n)) }

// windowCap bounds a rank's window. Chaste's 50-iteration KSp solve logs
// 199 operations between its two clock reads, so it fits one window.
const windowCap = 256

// phantom runs a phantom collective whose CallRecord reports bytes: in
// the rank's window, or as messages under a fault plan or on one rank.
func (c *Comm) phantom(k opKind, n, bytes int) {
	if c.st.world.faults != nil || len(c.group) == 1 {
		c.collective(k.String(), bytes, func() { c.phantomMessages(k, n) })
		return
	}
	c.logOp(op{kind: k, n: n})
}

// phantomMessages plays a phantom collective out as point-to-point
// messages, n bytes per message.
func (c *Comm) phantomMessages(k opKind, n int) {
	p := c.Size()
	switch k {
	case collBarrier:
		for s := 1; s < p; s <<= 1 {
			c.SendN((c.rank+s)%p, tagBarrier, n)
			c.RecvN((c.rank-s+p)%p, tagBarrier)
		}
	case collAllreduce:
		if p&(p-1) == 0 {
			for mask := 1; mask < p; mask <<= 1 {
				partner := c.rank ^ mask
				c.SendN(partner, tagAllred, n)
				c.RecvN(partner, tagAllred)
			}
			return
		}
		// reduce to 0
		vr := c.rank
		mask := 1
		for mask < p {
			if vr&mask == 0 {
				if vr+mask < p {
					c.RecvN(vr+mask, tagReduce)
				}
			} else {
				c.SendN(vr-mask, tagReduce, n)
				break
			}
			mask <<= 1
		}
		// broadcast from 0
		c.binomialBcast(0,
			func(dst int) { c.SendN(dst, tagBcast, n) },
			func(src int) { c.RecvN(src, tagBcast) })
	case collAllgather:
		right := (c.rank + 1) % p
		left := (c.rank - 1 + p) % p
		for s := 0; s < p-1; s++ {
			c.SendN(right, tagAllgat, n)
			c.RecvN(left, tagAllgat)
		}
	case collAlltoall:
		for s := 1; s < p; s++ {
			c.SendN((c.rank+s)%p, tagAlltoal, n)
			c.RecvN((c.rank-s+p)%p, tagAlltoal)
		}
	}
}

// RingExchangeN exchanges an n-byte phantom halo with the pairs nearest
// ranks on each side of the communicator's periodic ring, the
// neighbourhood of a mesh partition. At distance k = 1..pairs the rank
// sends to rank+k, then to rank-k, then receives from rank-k, then from
// rank+k: all of a distance's sends precede its receives, so the
// exchange cannot deadlock. A neighbour at both distances ±k (2k a
// multiple of the size) is exchanged with once, and a distance that
// wraps onto the rank itself is skipped. Every message is traced as a
// Send or Recv, exactly like the equivalent SendN/RecvN program, but
// every rank of the communicator must call it with the same pairs, as
// with a collective.
func (c *Comm) RingExchangeN(n, pairs int) {
	if pairs < 0 {
		panic(fmt.Sprintf("mpi: negative ring pair count %d", pairs))
	}
	if pairs > math.MaxInt32 {
		panic(fmt.Sprintf("mpi: ring pair count %d out of range", pairs))
	}
	if c.st.world.faults != nil {
		c.ringMessages(n, pairs)
		return
	}
	if pairs > 0 && len(c.group) > 1 {
		c.logOp(op{kind: collRing, n: n, pairs: int32(pairs)})
	}
}

// ringMessages plays RingExchangeN out as point-to-point messages.
func (c *Comm) ringMessages(n, pairs int) {
	p := c.Size()
	for k := 1; k <= pairs; k++ {
		up, down := ringPeers(c.rank, p, k)
		if up == c.rank {
			continue
		}
		c.SendN(up, tagRing, n)
		if down != up {
			c.SendN(down, tagRing, n)
		}
		c.RecvN(down, tagRing)
		if up != down {
			c.RecvN(up, tagRing)
		}
	}
}

// ringPeers returns comm rank r's neighbours at distance k on a p-rank
// periodic ring.
func ringPeers(r, p, k int) (up, down int) {
	return (r + k) % p, ((r-k)%p + p) % p
}

// slot is one communicator's rendezvous: every rank's window of logged
// operations and the evaluator's scratch. A world leases one per
// communicator on first use in a Run and recycles it, windows included,
// at the next Run or at Release, so slots cost no allocation in steady
// state.
type slot struct {
	ctx  uint64 // communicator context; immutable while listed
	next *slot  // next slot of the world's list; immutable while listed

	mu      sync.Mutex
	cond    sync.Cond // parked ranks wait here to be released
	parked  int       // ranks parked in the slot
	parks   int       // park calls since the lease
	aborted bool      // set by World.abortAll: parked ranks unwind
	ranks   []slotRank
}

// slotRank is one communicator rank's state in a slot. The rank appends
// to win without the lock while it runs; the evaluator reads and
// consumes win only while every rank is parked, and the slot mutex
// orders the two.
type slotRank struct {
	c         *Comm   // the rank's handle on the communicator; set when its window opens
	win       []op    // logged operations not yet evaluated, in program order
	cur       int     // evaluator's cursor into win
	parked    bool    // the rank waits in the slot
	observing bool    // parked to observe (released once win is empty), not for room
	op        op      // the collective being evaluated
	start     float64 // the rank's clock at the entry of that collective
	arrive    float64 // arrival time of the rank's send in the step being evaluated
	// arriveDown is the arrival time of the rank's ring send to rank-k
	// at the distance k being evaluated (arrive holds the one to rank+k).
	arriveDown float64
}

var slotPool = sync.Pool{New: func() any {
	s := new(slot)
	s.cond.L = &s.mu
	return s
}}

// slotFor returns the rendezvous slot of the p-rank communicator with
// context ctx, leasing it on first use in this Run. Lookups walk the
// published list without locking; only a lease takes slotMu.
func (w *World) slotFor(ctx uint64, p int) *slot {
	if s := w.findSlot(ctx); s != nil {
		return s
	}
	w.slotMu.Lock()
	defer w.slotMu.Unlock()
	if s := w.findSlot(ctx); s != nil {
		return s
	}
	s := slotPool.Get().(*slot)
	if cap(s.ranks) < p {
		s.ranks = make([]slotRank, p)
	}
	s.ctx, s.next, s.ranks = ctx, w.slots.Load(), s.ranks[:p]
	w.slots.Store(s)
	return s
}

// findSlot returns this Run's slot for ctx, or nil.
func (w *World) findSlot(ctx uint64) *slot {
	for s := w.slots.Load(); s != nil; s = s.next {
		if s.ctx == ctx {
			return s
		}
	}
	return nil
}

// releaseSlots recycles the slots of the last Run. A slot that an abort
// unwound, or that a timed-out Run left with parked ranks, is shed to
// the GC.
func (w *World) releaseSlots() {
	for s := w.slots.Load(); s != nil; {
		next := s.next
		if s.reset() {
			s.next = nil
			slotPool.Put(s)
		}
		s = next
	}
	w.slots.Store(nil)
}

// reset empties an idle slot's windows (a rank that returned an error
// may have left one open) and drops its handles, keeping the window
// capacity. It reports false, changing nothing, if the slot is not idle.
func (s *slot) reset() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted || s.parked > 0 {
		return false
	}
	for r := range s.ranks {
		sr := &s.ranks[r]
		sr.c, sr.win, sr.cur = nil, sr.win[:0], 0
	}
	s.parks = 0
	return true
}

// logOp appends collective o to this rank's window on c, first leaving
// an open window on another communicator and waiting for room.
func (c *Comm) logOp(o op) {
	if o.n < 0 {
		panic("mpi: negative message size")
	}
	st := c.st
	if st.win != nil && st.win.ctx != c.ctx {
		st.observe()
	}
	sr := c.window()
	if len(sr.win) == windowCap {
		st.win.park(st, false)
		sr = c.window()
	}
	sr.win = append(sr.win, o)
}

// window returns this rank's window in c's slot, opening it if the rank
// has none open.
func (c *Comm) window() *slotRank {
	st := c.st
	if st.win == nil {
		s := st.world.slotFor(c.ctx, len(c.group))
		s.ranks[c.rank].c = c
		st.win, st.winRank = s, c.rank
	}
	return &st.win.ranks[st.winRank]
}

// logCompute appends a compute charge of secs modelled seconds to this
// rank's open window, if it has one, and reports whether it did. A
// negative charge is not logged: it runs at once, where advance rejects
// it on the rank's own goroutine.
func (st *rankState) logCompute(k opKind, secs float64) bool {
	if st.win == nil {
		return false
	}
	if secs < 0 {
		st.observe()
		return false
	}
	sr := &st.win.ranks[st.winRank]
	if len(sr.win) == windowCap {
		if st.win.park(st, false); st.win == nil {
			return false // the window drained: run it at once
		}
	}
	sr.win = append(sr.win, op{kind: k, n: int(math.Float64bits(secs))})
	return true
}

// observe parks the rank until its open window, if any, has been
// evaluated. Every operation that reads or changes what the window's
// evaluation writes calls it first: Clock, RNG, Region, SetSolo,
// Checkpoint, Split, every message-plane or real-payload call, a
// phantom operation on another communicator, ReadShared, WriteShared,
// and the return of the rank function.
func (st *rankState) observe() {
	if st.win != nil {
		st.win.park(st, true)
	}
}

// park parks rank st in s until its window is empty (observing) or has
// room. The last rank of the communicator to park evaluates the windows
// and releases the ranks whose condition holds. Parked ranks count as
// blocked, exactly like a pending receive; ranks whose next collectives
// differ stay parked until the deadlock diagnosis.
func (s *slot) park(st *rankState, observing bool) {
	s.mu.Lock()
	if s.aborted {
		s.mu.Unlock()
		panic(abortPanic{})
	}
	w := st.world
	sr := &s.ranks[st.winRank]
	sr.parked, sr.observing = true, observing
	s.parked++
	s.parks++
	if s.parked == len(s.ranks) {
		released := s.drain()
		if !sr.parked {
			released--
		}
		if released > 0 {
			// Credit the released ranks back to running while this one
			// still runs, so the world never looks quiescent in between.
			w.sb.ranks.Add(int64(released))
			s.cond.Broadcast()
		}
	}
	if sr.parked {
		w.enterBlocked()
		for sr.parked && !s.aborted {
			s.cond.Wait()
		}
		if sr.parked {
			s.mu.Unlock()
			w.exitBlocked()
			panic(abortPanic{})
		}
	}
	if len(sr.win) == 0 {
		st.win = nil
	}
	s.mu.Unlock()
}

// drain evaluates the windows as far as the ranks agree: every rank's
// leading compute charges, then the collective every rank has reached,
// until a window runs out or the ranks' next collectives differ. It
// then compacts the windows and releases every rank whose window is
// empty or, parked full, has room, returning how many it released.
// Caller holds s.mu with every rank parked.
func (s *slot) drain() (released int) {
	for {
		for r := range s.ranks {
			s.ranks[r].charge()
		}
		if !s.agreed() {
			break
		}
		s.evaluate()
	}
	for r := range s.ranks {
		sr := &s.ranks[r]
		if sr.cur > 0 {
			sr.win = sr.win[:copy(sr.win, sr.win[sr.cur:])]
			sr.cur = 0
		}
		if len(sr.win) == 0 || !sr.observing && len(sr.win) < windowCap {
			sr.parked = false
			released++
		}
	}
	s.parked -= released
	return released
}

// charge charges the compute entries at the rank's cursor, drawing each
// Compute's jitter from the rank's own stream. Caller holds s.mu.
func (sr *slotRank) charge() {
	for ; sr.cur < len(sr.win); sr.cur++ {
		o := &sr.win[sr.cur]
		switch o.kind {
		case opCompute:
			st := sr.c.st
			sr.c.advance("compute", st.world.Platform.ComputeJitter.Apply(st.rng, o.secs()))
		case opSeconds:
			sr.c.advance("compute", o.secs())
		default:
			return
		}
	}
}

// agreed reports whether every rank's cursor is at the same collective
// (and, for a ring exchange, at the same number of pairs). Caller holds
// s.mu.
func (s *slot) agreed() bool {
	var first op
	for r := range s.ranks {
		sr := &s.ranks[r]
		if sr.cur == len(sr.win) {
			return false
		}
		o := sr.win[sr.cur]
		if r == 0 {
			first = o
		} else if o.kind != first.kind || o.pairs != first.pairs {
			return false
		}
	}
	return true
}

// evaluate charges and records the collective at every rank's cursor
// and moves the cursors past it. Within an exchange step every sender's
// clock already holds all its earlier receives, so all sends go first,
// then all receives. Caller holds s.mu.
func (s *slot) evaluate() {
	p := len(s.ranks)
	for r := range s.ranks {
		sr := &s.ranks[r]
		sr.op, sr.start = sr.win[sr.cur], sr.c.st.clock
		sr.cur++
	}
	k := s.ranks[0].op.kind
	switch {
	case k == collRing:
		s.evalRing()
		return // traced as its Sends and Recvs
	case k == collAllreduce && p&(p-1) != 0:
		s.evalReduceBcast()
	default:
		for step := 1; step < p; step = k.next(step) {
			for r := range s.ranks {
				dst, _ := k.peers(r, p, step)
				s.ranks[r].arrive = s.send(r, dst)
			}
			for r := range s.ranks {
				_, src := k.peers(r, p, step)
				s.recv(r, src, s.ranks[src].arrive)
			}
		}
	}
	for r := range s.ranks {
		sr := &s.ranks[r]
		bytes := sr.op.n
		if k == collAlltoall {
			bytes *= p
		}
		sr.c.record(k.String(), bytes, sr.start)
	}
}

// evalReduceBcast evaluates a non-power-of-two Allreduce: a binomial
// reduce to rank 0, mask by mask upwards (ranks whose lowest set bit is
// the mask send down to r-mask), then a binomial bcast from 0, mask by
// mask downwards. Each rank's receives precede its sends in both trees,
// as in the message path's program order. Caller holds s.mu.
func (s *slot) evalReduceBcast() {
	p := len(s.ranks)
	top := 1
	for m := 1; m < p; m <<= 1 {
		for r := m; r < p; r += 2 * m {
			s.ranks[r].arrive = s.send(r, r-m)
		}
		for r := 0; r+m < p; r += 2 * m {
			s.recv(r, r+m, s.ranks[r+m].arrive)
		}
		top = m
	}
	for m := top; m > 0; m >>= 1 {
		for r := 0; r+m < p; r += 2 * m {
			s.ranks[r].arrive = s.send(r, r+m)
		}
		for r := 0; r+m < p; r += 2 * m {
			s.recv(r+m, r, s.ranks[r].arrive)
		}
	}
}

// evalRing evaluates a ring exchange distance by distance: every rank's
// sends to rank+k and rank-k, then every rank's receives from rank-k and
// rank+k, each recorded as its own Send or Recv call. Within a distance
// each pair of ranks exchanges at most one message per direction, so
// the message path's per-(source, tag) FIFO pairs each receive with the
// same distance's send, the one evaluated here. Caller holds s.mu.
func (s *slot) evalRing() {
	p, pairs := len(s.ranks), int(s.ranks[0].op.pairs)
	for k := 1; k <= pairs; k++ {
		if k%p == 0 {
			continue // wraps onto the rank itself
		}
		both := 2*k%p == 0 // rank+k and rank-k coincide
		for r := range s.ranks {
			up, down := ringPeers(r, p, k)
			sr := &s.ranks[r]
			start := sr.c.st.clock
			sr.arrive = s.send(r, up)
			sr.c.record("Send", sr.op.n, start)
			if !both {
				start = sr.c.st.clock
				sr.arriveDown = s.send(r, down)
				sr.c.record("Send", sr.op.n, start)
			}
		}
		for r := range s.ranks {
			up, down := ringPeers(r, p, k)
			c := s.ranks[r].c
			start := c.st.clock
			s.recv(r, down, s.ranks[down].arrive)
			c.record("Recv", s.ranks[down].op.n, start)
			if !both {
				start = c.st.clock
				s.recv(r, up, s.ranks[up].arriveDown)
				c.record("Recv", s.ranks[up].op.n, start)
			}
		}
	}
}

// send charges comm rank r's message to comm rank dst and returns its
// arrival time.
func (s *slot) send(r, dst int) float64 {
	sr := &s.ranks[r]
	return sr.c.st.sendCost(sr.c.group[dst], sr.op.n)
}

// recv charges comm rank r's receive of the message src sent at arrive.
func (s *slot) recv(r, src int, arrive float64) {
	c := s.ranks[r].c
	c.st.recvCost(c.group[src], s.ranks[src].op.n, arrive)
}

// parkedRanks describes every rank parked at a rendezvous, indexed by
// world rank ("" where none), for the deadlock diagnosis: the first
// operation of its window that is still unevaluated, and how many of
// the communicator's ranks have logged one.
func (w *World) parkedRanks() []string {
	parked := make([]string, w.np)
	for s := w.slots.Load(); s != nil; s = s.next {
		s.mu.Lock()
		entered := 0
		for r := range s.ranks {
			if len(s.ranks[r].win) > 0 {
				entered++
			}
		}
		for r := range s.ranks {
			if sr := &s.ranks[r]; sr.parked {
				parked[sr.c.st.wrank] = fmt.Sprintf("rank %d waiting in %v (ctx=%d, %d/%d entered)",
					sr.c.st.wrank, sr.win[0].kind, s.ctx, entered, len(s.ranks))
			}
		}
		s.mu.Unlock()
	}
	return parked
}

// abortSlots unwinds every rank parked at a rendezvous.
func (w *World) abortSlots() {
	for s := w.slots.Load(); s != nil; s = s.next {
		s.mu.Lock()
		s.aborted = true
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}
