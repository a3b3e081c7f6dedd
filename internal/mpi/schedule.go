package mpi

import (
	"fmt"
	"sync"
)

// Fault-free phantom collectives are evaluated as schedules, LogGOPSim
// style, instead of being played out as messages. Each of them is fully
// synchronising: every rank's exit already waits on every rank's entry,
// so its outcome is a pure function of the entry clocks, the algorithm's
// round schedule and the per-message cost and jitter draws. Every rank
// therefore parks once at its communicator's rendezvous slot; the last
// to enter charges every modelled message through the same sendCost and
// recvCost the message plane uses, in the algorithm's dependency order,
// and releases the others. Each rank's random stream is drawn in the
// order its own sends would have drawn it, and the send/receive
// counters count the modelled messages, so clocks, CallRecords and
// metrics match the message path bit for bit.
//
// Sends are eager, so a parked rank never holds back a message a peer
// needs: the rendezvous adds no host-time dependency the message path
// lacks. Real-payload collectives, BcastN/GatherN (not fully
// synchronising) and worlds under a fault plan (whose deaths and link
// degradations are clocked per message) keep the message path.
//
// RingExchangeN, the periodic ring halo, takes the same rendezvous
// although it synchronises only neighbours: its exit clocks are still a
// pure function of the entry clocks, so evaluating them once every rank
// has entered changes no virtual time, only the host-time order (which
// is why every rank of the communicator must call it). Unlike the
// collectives it is traced as its individual Sends and Recvs, which the
// evaluator records for each rank as it charges them.

// collKind names a phantom operation evaluated at a rendezvous: a fully
// synchronising collective, or the ring halo exchange.
type collKind uint8

const (
	collBarrier   collKind = iota // dissemination barrier
	collAllreduce                 // recursive doubling, or reduce to 0 plus binomial bcast
	collAllgather                 // ring
	collAlltoall                  // pairwise exchange
	collRing                      // periodic ring halo exchange (RingExchangeN)
)

// String is the collective's name in CallRecords and deadlock diagnoses.
func (k collKind) String() string {
	return [...]string{"Barrier", "Allreduce", "Allgather", "Alltoall", "RingExchange"}[k]
}

// next returns the step after s of an exchange-shaped schedule; steps
// start at 1 and run while below the communicator size.
func (k collKind) next(s int) int {
	if k == collBarrier || k == collAllreduce {
		return s << 1
	}
	return s + 1
}

// peers returns the destination of comm rank r's one send and the
// source of its one receive at step s of a p-rank exchange-shaped
// schedule (every collKind except non-power-of-two Allreduce).
func (k collKind) peers(r, p, s int) (dst, src int) {
	switch k {
	case collAllreduce:
		return r ^ s, r ^ s
	case collAllgather:
		return (r + 1) % p, (r - 1 + p) % p
	}
	return (r + s) % p, (r - s + p) % p
}

// phantom runs the body of a phantom collective: as a schedule at the
// communicator's rendezvous, or as messages under a fault plan.
func (c *Comm) phantom(k collKind, n int) {
	if c.st.world.faults != nil {
		c.phantomMessages(k, n)
		return
	}
	c.rendezvous(slotRank{kind: k, n: n})
}

// phantomMessages plays a phantom collective out as point-to-point
// messages, n bytes per message.
func (c *Comm) phantomMessages(k collKind, n int) {
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
	if c.st.world.faults != nil {
		c.ringMessages(n, pairs)
		return
	}
	if pairs > 0 {
		c.rendezvous(slotRank{kind: collRing, n: n, pairs: pairs})
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

// slot is one communicator's rendezvous: the ranks parked in its current
// collective and the evaluator's scratch. A world leases one per
// communicator on first use in a Run and recycles it at the next Run or
// at Release, so slots cost no allocation in steady state.
type slot struct {
	ctx  uint64 // communicator context; immutable while listed
	next *slot  // next slot of the world's list; immutable while listed

	mu      sync.Mutex
	cond    sync.Cond // parked ranks wait here for gen to move on
	entered int
	gen     uint64 // completed collectives; a parked rank waits for it to change
	aborted bool   // set by World.abortAll: parked ranks unwind
	ranks   []slotRank
}

// slotRank is one communicator rank's entry in a slot.
type slotRank struct {
	c      *Comm    // nil until the rank enters the current collective
	kind   collKind // the collective it entered
	n      int      // bytes per message the rank sends
	pairs  int      // ring exchange: neighbour distances on each side
	arrive float64  // arrival time of the rank's send in the step being evaluated
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

// releaseSlots recycles the slots of the last Run. Every rank has
// returned, so a slot is idle unless an abort unwound it; aborted slots
// are shed to the GC.
func (w *World) releaseSlots() {
	for s := w.slots.Load(); s != nil; {
		next := s.next
		if !s.aborted {
			s.next = nil
			slotPool.Put(s)
		}
		s = next
	}
	w.slots.Store(nil)
}

// rendezvous enters this rank, described by e, into its communicator's
// slot. The last rank to enter evaluates the schedule and releases the
// others; the rest park until it has.
func (c *Comm) rendezvous(e slotRank) {
	p := len(c.group)
	if p == 1 {
		return
	}
	if e.n < 0 {
		panic("mpi: negative message size")
	}
	w := c.st.world
	s := w.slotFor(c.ctx, p)
	s.mu.Lock()
	if s.aborted {
		s.mu.Unlock()
		panic(abortPanic{})
	}
	e.c = c
	s.ranks[c.rank] = e
	s.entered++
	if s.entered < p || !s.agreed() {
		// Park, counted as blocked exactly like a pending receive. Ranks
		// that entered different collectives stay parked, as their
		// mismatched messages would, until the deadlock diagnosis.
		gen := s.gen
		w.enterBlocked()
		for s.gen == gen && !s.aborted {
			s.cond.Wait()
		}
		released := s.gen != gen
		s.mu.Unlock()
		if !released {
			w.exitBlocked()
			panic(abortPanic{})
		}
		return
	}
	// Last to enter. Credit the parked ranks back to running while this
	// one still runs, so the world never looks quiescent in between.
	w.sb.ranks.Add(int64(p - 1))
	s.evaluate()
	for i := range s.ranks {
		s.ranks[i].c = nil
	}
	s.entered = 0
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// agreed reports whether every entered rank is in the same collective
// (and, for a ring exchange, at the same number of pairs).
func (s *slot) agreed() bool {
	for _, sr := range s.ranks {
		if sr.kind != s.ranks[0].kind || sr.pairs != s.ranks[0].pairs {
			return false
		}
	}
	return true
}

// evaluate charges every message of the slot's collective, step by
// step: within a step every sender's clock already holds all its earlier
// receives, so all sends go first, then all receives. Caller holds s.mu
// with every rank entered.
func (s *slot) evaluate() {
	p, k := len(s.ranks), s.ranks[0].kind
	switch {
	case k == collRing:
		s.evalRing()
		return
	case k == collAllreduce && p&(p-1) != 0:
		s.evalReduceBcast()
		return
	}
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
	p, pairs := len(s.ranks), s.ranks[0].pairs
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
			sr.c.record("Send", sr.n, start)
			if !both {
				start = sr.c.st.clock
				sr.arriveDown = s.send(r, down)
				sr.c.record("Send", sr.n, start)
			}
		}
		for r := range s.ranks {
			up, down := ringPeers(r, p, k)
			c := s.ranks[r].c
			start := c.st.clock
			s.recv(r, down, s.ranks[down].arrive)
			c.record("Recv", s.ranks[down].n, start)
			if !both {
				start = c.st.clock
				s.recv(r, up, s.ranks[up].arriveDown)
				c.record("Recv", s.ranks[up].n, start)
			}
		}
	}
}

// send charges comm rank r's message to comm rank dst and returns its
// arrival time.
func (s *slot) send(r, dst int) float64 {
	sr := &s.ranks[r]
	return sr.c.st.sendCost(sr.c.group[dst], sr.n)
}

// recv charges comm rank r's receive of the message src sent at arrive.
func (s *slot) recv(r, src int, arrive float64) {
	c := s.ranks[r].c
	c.st.recvCost(c.group[src], s.ranks[src].n, arrive)
}

// parkedRanks describes every rank parked at a rendezvous, indexed by
// world rank ("" where none), for the deadlock diagnosis.
func (w *World) parkedRanks() []string {
	parked := make([]string, w.np)
	for s := w.slots.Load(); s != nil; s = s.next {
		s.mu.Lock()
		for _, sr := range s.ranks {
			if sr.c != nil {
				parked[sr.c.st.wrank] = fmt.Sprintf("rank %d waiting in %v (ctx=%d, %d/%d entered)",
					sr.c.st.wrank, sr.kind, s.ctx, s.entered, len(s.ranks))
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
