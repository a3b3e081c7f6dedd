package facility

import "sort"

// The incremental scheduler (schedHeap, the default): the structures
// that make a 10^6-job run near-linear.
//
//   - Pending jobs live in a binary min-heap ordered by (priority key,
//     submit, seq). The key is the tenant's time-independent log-domain
//     fairshare key (tenantUsage.key), cached in the entry with the
//     account's charge generation. Charges only move a key upward, so a
//     stale cached key is a lower bound: popping the heap minimum,
//     re-keying it if its generation lags and pushing it back yields the
//     exact minimum — the classic lazy priority queue, with no
//     tenant-to-entries index and no per-pass sort.
//   - The HPC pool maintains a release profile: the running jobs'
//     planning-bound release times kept in (at, seq) order, updated by
//     binary-search insert/remove on start/finish. EASY reservations walk
//     it with the identical accumulation loop the sort oracle runs over
//     its freshly-sorted copy, so the two paths compute bit-equal
//     (reservation, spare) pairs.
//   - estWait reads the maintained aggregates both paths share
//     (facility.go), so routing is O(1) instead of O(queue + running).
//
// At saturation p.free is 0 and a backfill pass pops nothing — the
// whole pass is O(1) — which is why queue depth stops being the
// bottleneck.

// heapEntry is one pending job with its cached priority key and the
// charge generation the key was computed at (both zero without
// fairshare, collapsing the order to FCFS (submit, seq)).
type heapEntry struct {
	key float64
	gen uint32
	rec *jobRec
}

// entryLess is the strict total order (key, submit, seq). seq is unique
// per job, so heap pops enumerate entries in exactly this order no
// matter what order they were pushed.
func entryLess(a, b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.rec.job.Submit != b.rec.job.Submit {
		return a.rec.job.Submit < b.rec.job.Submit
	}
	return a.rec.seq < b.rec.seq
}

// pendHeap is a plain binary min-heap of heapEntry.
type pendHeap struct{ h []heapEntry }

func (q *pendHeap) len() int { return len(q.h) }

func (q *pendHeap) push(e heapEntry) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *pendHeap) pop() heapEntry {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = heapEntry{} // release the jobRec reference
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.h) && entryLess(q.h[l], q.h[min]) {
			min = l
		}
		if r < len(q.h) && entryLess(q.h[r], q.h[min]) {
			min = r
		}
		if min == i {
			return top
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}

// popFresh pops the true minimum-priority pending job: an entry whose
// cached key is stale (its tenant was charged since the key was cached)
// is re-keyed and re-pushed. Its key can only have increased, so the
// first generation-fresh pop is the exact minimum; charges only happen
// between scheduling passes, so every entry is re-keyed at most once
// per pass and the loop terminates.
func (f *Facility) popFresh(p *poolState) heapEntry {
	for {
		e := p.pend.pop()
		if e.rec.acct == nil || e.gen == e.rec.acct.gen {
			return e
		}
		e.key = e.rec.acct.key(f.share.half)
		e.gen = e.rec.acct.gen
		p.pend.push(e)
	}
}

// scheduleHeap is one pass of the incremental scheduler: pop-start
// pending jobs in priority order while they fit, then backfill behind
// the blocked head.
func (f *Facility) scheduleHeap(p *poolState) {
	var head heapEntry
	for {
		if p.pend.len() == 0 {
			return
		}
		head = f.popFresh(p)
		if head.rec.job.NP > p.free {
			break
		}
		f.start(p, head.rec)
	}
	if p.id != PoolHPC || !f.cfg.Backfill {
		p.pend.push(head)
		return
	}
	f.backfillHeap(p, head)
}

// backfillHeap is the EASY pass over the heap: the head's reservation
// and spare slots come from the maintained release profile (no sort);
// candidates are popped in priority order up to the depth cap, started
// when they cannot delay the head, and re-pushed with their cached keys
// otherwise.
func (f *Facility) backfillHeap(p *poolState, head heapEntry) {
	resv, spare := p.profile.reservation(f.clock, p.free, head.rec.job.NP)
	f.reserve(head.rec, resv)
	depth := f.cfg.backfillDepth()
	kept := append(f.scratch[:0], head)
	for i := 0; i < depth && p.free > 0 && p.pend.len() > 0; i++ {
		e := f.popFresh(p)
		rec := e.rec
		fits := rec.job.NP <= p.free
		safe := f.clock+f.planDur(rec) <= resv || rec.job.NP <= spare
		if fits && safe {
			if f.clock+f.planDur(rec) > resv {
				spare -= rec.job.NP
			}
			f.start(p, rec)
			f.tally.backfilled++
			continue
		}
		kept = append(kept, e)
	}
	for _, e := range kept {
		p.pend.push(e)
	}
	f.scratch = kept[:0]
}

// release is one running job's planned slot release: its planning-bound
// release time, width, and seq (the (at, seq) pair is unique and makes
// the profile's order total — the same tie-break reservationSort uses).
type release struct {
	at  float64
	np  int
	seq int
}

// releaseProfile is the maintained free-slot timeline: running jobs'
// planned releases in ascending (at, seq) order. Insert and remove are
// binary search plus a copy — the profile is bounded by the pool's slot
// count, so the moves are small and cache-friendly — replacing the sort
// oracle's allocate-and-sort on every reservation.
type releaseProfile struct {
	rel []release
}

// rank returns the index of the first entry ordered at or after
// (at, seq).
func (t *releaseProfile) rank(at float64, seq int) int {
	return sort.Search(len(t.rel), func(i int) bool {
		e := t.rel[i]
		if e.at != at {
			return e.at > at
		}
		return e.seq >= seq
	})
}

func (t *releaseProfile) insert(at float64, np, seq int) {
	i := t.rank(at, seq)
	t.rel = append(t.rel, release{})
	copy(t.rel[i+1:], t.rel[i:])
	t.rel[i] = release{at: at, np: np, seq: seq}
}

func (t *releaseProfile) remove(at float64, seq int) {
	i := t.rank(at, seq)
	t.rel = append(t.rel[:i], t.rel[i+1:]...)
}

// reservation walks the profile exactly like the oracle walks its
// sorted copy: accumulate releases until the head fits, returning the
// guarantee time and the slots spare once the head starts.
func (t *releaseProfile) reservation(clock float64, free, need int) (float64, int) {
	resv := clock
	for _, e := range t.rel {
		if free >= need {
			break
		}
		free += e.np
		resv = e.at
	}
	return resv, free - need
}
