package mpi

import (
	"sync"

	"repro/internal/obs"
)

// AnySource and AnyTag are wildcard values for Recv matching. Receives
// using wildcards are matched in physical arrival order, which is not
// deterministic across runs; all workloads in this repository use explicit
// sources and tags, keeping every experiment bit-reproducible.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is an in-flight point-to-point message. Envelopes (and the
// payload capacity they carry) are recycled through msgPool; see pool.go
// for the ownership rules.
type message struct {
	ctx  uint64 // communicator context id
	src  int    // world rank of sender
	tag  int
	kind payloadKind // which payload field is live (payloadNone: phantom)
	f64  []float64
	ints []int
	cplx []complex128

	bytes  int     // modelled payload size
	arrive float64 // virtual arrival time at the receiver
	seq    uint64  // per-inbox arrival stamp, orders wildcard matching
	fresh  bool    // set by the pool's allocator, cleared on lease: marks a pool miss
}

// bucketKey addresses one exact-match FIFO queue.
type bucketKey struct {
	ctx      uint64
	src, tag int
}

// bucket is one (ctx,src,tag) FIFO. head indexes the next message to
// match; the tail of msgs holds the queued ones. The backing array is
// retained across drains, so steady-state traffic enqueues without
// allocating.
type bucket struct {
	head int
	msgs []*message
}

// empty reports whether no message is queued.
func (q *bucket) empty() bool { return q.head == len(q.msgs) }

// push enqueues m, compacting the consumed prefix once it dominates the
// slice so a never-idle queue cannot grow without bound.
func (q *bucket) push(m *message) {
	if q.head > 32 && q.head*2 >= len(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		for i := n; i < len(q.msgs); i++ {
			q.msgs[i] = nil
		}
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	q.msgs = append(q.msgs, m)
}

// pop removes and returns the oldest queued message.
func (q *bucket) pop() *message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil // matched messages must not be retained
	q.head++
	if q.empty() {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return m
}

// inbox is one rank's unexpected-message queue with source/tag matching,
// bucketed by exact (ctx,src,tag) so the common explicit receive is a map
// lookup plus a FIFO pop instead of a linear scan. Each inbox has exactly
// one consumer (its rank's goroutine), so at most one waiter with one
// match predicate exists at any time and a put can wake it with Signal.
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buckets map[bucketKey]*bucket
	slab    []bucket // arena for bucket structs, amortises short-lived worlds
	npend   int      // queued, unmatched messages across all buckets
	seq     uint64   // next arrival stamp
	aborted bool     // set by World.abortAll once the world is quiescent

	// The blocked waiter's predicate, valid while waiting is true. A put
	// whose message satisfies it signals the consumer; one that cannot
	// match leaves it asleep. A waiting consumer is counted as blocked on
	// the world's quiescence scoreboard; clearing waiting credits it back
	// to "running" under the same lock as the delivery, so the world can
	// never look quiescent while a satisfiable receive is pending.
	waiting    bool
	wctx       uint64
	wsrc, wtag int

	depth obs.Tally // queue depth at each put; guarded by mu
	tally rankTally // the owning rank's message metering (see rankTally)
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// inboxPool recycles inboxes — and the bucket maps, bucket arenas and
// queue arrays hanging off them — across world lifetimes. Building and
// tearing down worlds is the artefact scheduler's steady state (the
// world-churn benchmark), and the inbox graph was most of its per-world
// allocation.
var inboxPool = sync.Pool{New: func() any { return newInbox() }}

// leaseInboxes returns np pooled inboxes.
func leaseInboxes(np int) []*inbox {
	boxes := make([]*inbox, np)
	for i := range boxes {
		boxes[i] = inboxPool.Get().(*inbox)
	}
	return boxes
}

// releaseInboxes recycles clean inboxes; one still holding unmatched
// messages or unwound by an abort is shed to the GC instead, so a pooled
// inbox is always empty and quiescent when leased.
func releaseInboxes(boxes []*inbox) {
	for _, b := range boxes {
		if b != nil && b.reset() {
			inboxPool.Put(b)
		}
	}
}

// reset prepares a clean inbox for reuse, reporting false when it is not
// reusable. The bucket map and arena are retained: their queues are
// empty (npend == 0), and keeping them is the point of the pool.
func (b *inbox) reset() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.npend != 0 || b.aborted || b.waiting {
		return false
	}
	b.seq = 0
	b.wctx, b.wsrc, b.wtag = 0, 0, 0
	return true
}

func matches(m *message, ctx uint64, src, tag int) bool {
	return m.ctx == ctx && (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
}

// put enqueues a message and wakes the consumer only when the message can
// satisfy its pending receive. Messages from one sender are enqueued in
// program order, giving per-(src,tag) FIFO matching.
func (b *inbox) put(w *World, m *message) {
	b.mu.Lock()
	m.seq = b.seq
	b.seq++
	if b.buckets == nil {
		b.buckets = make(map[bucketKey]*bucket, 8)
	}
	k := bucketKey{ctx: m.ctx, src: m.src, tag: m.tag}
	q := b.buckets[k]
	if q == nil {
		if len(b.slab) == 0 {
			b.slab = make([]bucket, 16)
		}
		q = &b.slab[0]
		b.slab = b.slab[1:]
		b.buckets[k] = q
	}
	q.push(m)
	b.npend++
	b.depth.Observe(int64(b.npend))
	if b.waiting && matches(m, b.wctx, b.wsrc, b.wtag) {
		// Credit the receiver as running before this put returns: the
		// sender is running until then, so the running count never
		// touches zero while this message is deliverable. Crediting after
		// the sender could block would let the scoreboard see a
		// quiescent world here and abort a live receive.
		b.unblock(w)
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// take removes and returns the oldest message matching (ctx, src, tag),
// or nil. Exact receives hit their bucket directly; wildcard receives
// scan the (small) bucket map for the lowest arrival stamp, preserving
// the physical-arrival-order semantics of the pre-bucket queue. Caller
// holds b.mu.
func (b *inbox) take(ctx uint64, src, tag int) *message {
	if src != AnySource && tag != AnyTag {
		q := b.buckets[bucketKey{ctx: ctx, src: src, tag: tag}]
		if q == nil || q.empty() {
			return nil
		}
		b.npend--
		return q.pop()
	}
	var best *bucket
	for k, q := range b.buckets {
		if q.empty() || k.ctx != ctx {
			continue
		}
		if src != AnySource && k.src != src {
			continue
		}
		if tag != AnyTag && k.tag != tag {
			continue
		}
		if best == nil || q.msgs[q.head].seq < best.msgs[best.head].seq {
			best = q
		}
	}
	if best == nil {
		return nil
	}
	b.npend--
	return best.pop()
}

// match blocks until a message matching (ctx, src, tag) is available,
// removes it from its bucket and returns it. src/tag may be
// AnySource/AnyTag; the communicator context always matches exactly.
//
// After a rank failure, a receive that can still be satisfied proceeds
// normally; match panics with abortPanic only once the world is
// quiescent (every surviving rank blocked on a receive no delivered or
// future message can satisfy, so none will ever complete; a quiescent
// world without a failure is a deadlock and aborts the same way). This
// "maximal progress" rule keeps post-failure state — in particular which
// checkpoints committed — deterministic: a rank is never aborted while
// any peer that could still send to it is runnable, so the set of
// completed operations is the unique maximal one (the message-passing
// program is a Kahn process network).
func (b *inbox) match(w *World, ctx uint64, src, tag int) *message {
	b.mu.Lock()
	for {
		if m := b.take(ctx, src, tag); m != nil {
			// Defensive: a found match implies put already credited
			// this waiter, but keep the counts paired.
			b.unblock(w)
			b.mu.Unlock()
			return m
		}
		if b.aborted {
			b.unblock(w)
			b.mu.Unlock()
			panic(abortPanic{})
		}
		if !b.waiting {
			b.waiting = true
			b.wctx, b.wsrc, b.wtag = ctx, src, tag
			w.enterBlocked()
		}
		b.cond.Wait()
	}
}

// unblock ends a wait, crediting the consumer back to running on the
// world's scoreboard. Caller holds b.mu.
func (b *inbox) unblock(w *World) {
	if b.waiting {
		b.waiting = false
		w.exitBlocked()
	}
}

// flush folds the inbox's depth tally and its rank's tally into m and
// zeroes both for the next Run.
func (b *inbox) flush(m *worldMetrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m.fold(&b.tally, &b.depth)
	b.tally, b.depth = rankTally{}, obs.Tally{}
}

// pending returns the number of queued, unmatched messages: a counter
// maintained by put/take, so it stays O(1) over any number of buckets.
func (b *inbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.npend
}

// pendingDebug returns the maintained counter alongside a brute-force
// recount over every bucket, both read under one lock acquisition (test
// hook for the counter invariant).
func (b *inbox) pendingDebug() (counter, brute int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, q := range b.buckets {
		brute += len(q.msgs) - q.head
	}
	return b.npend, brute
}
